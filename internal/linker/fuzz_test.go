package linker_test

import (
	"encoding/binary"
	"reflect"
	"testing"

	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/linker"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/probe"
)

// FuzzReadMetadata writes fuzzed bytes, length prefix included, over
// the .pkgs, .rstrct and .verif sections of real linked images — a
// probe world's and the net/http program's — and decodes them the way
// Init does. Every input must be rejected with an error or decode to a
// result that does not depend on when it is read; a declared length
// past the section must be rejected before anything is allocated for
// it; and Init must not accept metadata its own readers reject.
func FuzzReadMetadata(f *testing.F) {
	w, err := probe.BuildWorld(probe.Gen(1, 0).Spec, "baseline")
	if err != nil {
		f.Fatal(err)
	}
	prog, err := httpserv.Program(core.Baseline, httpserv.HandlerPolicy)
	if err != nil {
		f.Fatal(err)
	}
	images := []*linker.Image{w.Img, prog.Image()}
	for _, img := range images {
		f.Add(sectionBytes(f, img, img.PkgsSec), sectionBytes(f, img, img.RstrctSec), sectionBytes(f, img, img.VerifSec))
	}
	huge := binary.LittleEndian.AppendUint64(nil, ^uint64(0))
	f.Add(huge, huge, huge)
	f.Add([]byte{}, []byte("\x02\x00\x00\x00\x00\x00\x00\x00{}"), []byte("\x04\x00\x00\x00\x00\x00\x00\x00null"))

	f.Fuzz(func(t *testing.T, pkgs, rstrct, verif []byte) {
		for _, tmpl := range images {
			// A copy-on-write fork per input: no input reaches the next.
			space, secMap := tmpl.Space.CloneCoW()
			img := tmpl.CloneWith(space, tmpl.Graph.Share(), secMap)
			for _, s := range []struct {
				sec  *mem.Section
				data []byte
			}{{img.PkgsSec, pkgs}, {img.RstrctSec, rstrct}, {img.VerifSec, verif}} {
				buf := make([]byte, s.sec.Size)
				copy(buf, s.data)
				if err := space.WriteAt(s.sec.Base, buf); err != nil {
					t.Fatal(err)
				}
			}

			pkgsOK := decodesConsistently(t, img, img.PkgsSec, func() (any, error) { return img.ReadPkgs() })
			decodesConsistently(t, img, img.RstrctSec, func() (any, error) { return img.ReadRstrct() })
			verifOK := decodesConsistently(t, img, img.VerifSec, func() (any, error) { return img.ReadVerif() })

			clock := hw.NewClock()
			k := kernel.New(space, clock)
			_, err := litterbox.Init(litterbox.Config{
				Image: img, Clock: clock, Kernel: k, Proc: k.NewProc(1, 1, 1), Backend: litterbox.NewBaseline(),
			})
			if err == nil && !(pkgsOK && verifOK) {
				t.Fatalf("Init accepted metadata its readers reject (.pkgs ok %v, .verif ok %v)", pkgsOK, verifOK)
			}
		}
	})
}

// decodesConsistently decodes one metadata section twice and reports
// whether it decoded. Both reads must agree, and a length prefix that
// runs past the section must be an error.
func decodesConsistently(t *testing.T, img *linker.Image, sec *mem.Section, read func() (any, error)) bool {
	t.Helper()
	v1, err1 := read()
	v2, err2 := read()
	if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(v1, v2) {
		t.Fatalf("%s decodes differently on a second read: %v, %v / %v, %v", sec.Name, v1, err1, v2, err2)
	}
	n, err := img.Space.Load64(sec.Base)
	if err != nil {
		t.Fatal(err)
	}
	if err1 == nil && n > sec.Size-8 {
		t.Fatalf("%s: declared length %d past the %d-byte section decoded without error", sec.Name, n, sec.Size)
	}
	return err1 == nil
}

// sectionBytes reads a metadata section's length prefix and the JSON it
// declares out of the image's memory. The zero padding after it is left
// out: the fuzz body zero-fills what an input does not cover, and a
// shorter seed keeps the fuzzer's minimisation cheap.
func sectionBytes(tb testing.TB, img *linker.Image, sec *mem.Section) []byte {
	tb.Helper()
	n, err := img.Space.Load64(sec.Base)
	if err != nil {
		tb.Fatal(err)
	}
	buf := make([]byte, 8+n)
	if err := img.Space.ReadAt(sec.Base, buf); err != nil {
		tb.Fatal(err)
	}
	return buf
}
