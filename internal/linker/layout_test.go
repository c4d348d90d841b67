package linker_test

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/litterbox-project/enclosure/internal/linker"
)

// FuzzReadPkgLayout writes fuzzed .pkgs bytes over real linked images
// and decodes them with both readers: ReadPkgLayout, which Init uses,
// must reject exactly the inputs ReadPkgs rejects and otherwise return
// ReadPkgs' descriptors with their symbol tables left out. The seeds
// are each image's own .pkgs, the edge inputs, and copies of the real
// .pkgs with a few bytes overwritten (most land in symbol tables, the
// bulk of the section).
func FuzzReadPkgLayout(f *testing.F) {
	images := metadataImages(f)
	r := rand.New(rand.NewSource(1))
	for _, img := range images {
		real := sectionBytes(f, img, img.PkgsSec)
		f.Add(real)
		for i := 0; i < 32; i++ {
			b := append([]byte(nil), real...)
			for j := 1 + r.Intn(3); j > 0; j-- {
				b[8+r.Intn(len(b)-8)] = byte(r.Intn(256))
			}
			f.Add(b)
		}
	}
	for _, in := range edgeInputs(f, images[0]) {
		f.Add(in[0])
	}

	f.Fuzz(func(t *testing.T, pkgs []byte) {
		for _, tmpl := range images {
			img := forkWith(t, tmpl, pkgs, sectionBytes(t, tmpl, tmpl.RstrctSec), sectionBytes(t, tmpl, tmpl.VerifSec))
			full, errFull := img.ReadPkgs()
			layout, errLayout := img.ReadPkgLayout()
			if (errFull == nil) != (errLayout == nil) {
				t.Fatalf("ReadPkgs error %v, ReadPkgLayout error %v", errFull, errLayout)
			}
			if errFull != nil {
				if errFull.Error() != errLayout.Error() {
					t.Fatalf("the readers reject for different reasons: %v / %v", errFull, errLayout)
				}
				continue
			}
			want := make([]linker.PkgDesc, len(full))
			for i, d := range full {
				d.Funcs, d.Consts, d.Vars = nil, nil, nil
				want[i] = d
			}
			if !reflect.DeepEqual(layout, want) {
				t.Fatalf("ReadPkgLayout = %v, want ReadPkgs without symbols %v", layout, want)
			}
		}
	})
}
