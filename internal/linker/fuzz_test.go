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

// metadataImages links the images the metadata tests corrupt: a probe
// world's and the net/http program's.
func metadataImages(tb testing.TB) []*linker.Image {
	tb.Helper()
	w, err := probe.BuildWorld(probe.Gen(1, 0).Spec, "baseline")
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := httpserv.Program(core.Baseline, httpserv.HandlerPolicy)
	if err != nil {
		tb.Fatal(err)
	}
	return []*linker.Image{w.Img, prog.Image()}
}

// edgeInputs are (.pkgs, .rstrct, .verif) contents, length prefix
// included, that every reader must reject with an error: a length
// prefix past the section; a zero-length payload; a record count of
// 2^32-1 over four bytes; one record whose first string claims 2^31-1
// bytes (a package name, and an enclosure name after its u64 ID); and
// img's own payloads with one trailing byte.
func edgeInputs(tb testing.TB, img *linker.Image) [][3][]byte {
	huge := binary.LittleEndian.AppendUint64(nil, ^uint64(0))
	empty := payload()
	manyRecords := payload(0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0)
	longPkgName := payload(append([]byte{1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F}, make([]byte, 28)...)...)
	longEnclName := payload(append([]byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F}, make([]byte, 20)...)...)
	trailing := func(sec *mem.Section) []byte {
		return payload(append(sectionBytes(tb, img, sec)[8:], 0x5A)...)
	}
	return [][3][]byte{
		{huge, huge, huge},
		{empty, empty, empty},
		{manyRecords, manyRecords, manyRecords},
		{longPkgName, longEnclName, manyRecords},
		{trailing(img.PkgsSec), trailing(img.RstrctSec), trailing(img.VerifSec)},
	}
}

// FuzzReadMetadata writes fuzzed bytes, length prefix included, over
// the .pkgs, .rstrct and .verif sections of real linked images and
// decodes them the way Init does. Every input must be rejected with an
// error or decode to a result that does not depend on when it is read;
// a declared length, count or string length past the bytes that hold
// it must be an error, never an allocation for it; and Init must not
// accept metadata its own readers reject.
func FuzzReadMetadata(f *testing.F) {
	images := metadataImages(f)
	for _, img := range images {
		f.Add(sectionBytes(f, img, img.PkgsSec), sectionBytes(f, img, img.RstrctSec), sectionBytes(f, img, img.VerifSec))
	}
	for _, in := range edgeInputs(f, images[0]) {
		f.Add(in[0], in[1], in[2])
	}

	f.Fuzz(func(t *testing.T, pkgs, rstrct, verif []byte) {
		for _, tmpl := range images {
			img := forkWith(t, tmpl, pkgs, rstrct, verif)
			pkgsOK := decodesConsistently(t, img, img.PkgsSec, func() (any, error) { return img.ReadPkgs() })
			decodesConsistently(t, img, img.RstrctSec, func() (any, error) { return img.ReadRstrct() })
			verifOK := decodesConsistently(t, img, img.VerifSec, func() (any, error) { return img.ReadVerif() })

			clock := hw.NewClock()
			k := kernel.New(img.Space, clock)
			_, err := litterbox.Init(litterbox.Config{
				Image: img, Clock: clock, Kernel: k, Proc: k.NewProc(1, 1, 1), Backend: litterbox.NewBaseline(),
			})
			if err == nil && !(pkgsOK && verifOK) {
				t.Fatalf("Init accepted metadata its readers reject (.pkgs ok %v, .verif ok %v)", pkgsOK, verifOK)
			}
		}
	})
}

// TestReadRejectsEdgeInputs: each edge input is an error from all three
// readers on every image.
func TestReadRejectsEdgeInputs(t *testing.T) {
	for _, tmpl := range metadataImages(t) {
		for i, in := range edgeInputs(t, tmpl) {
			img := forkWith(t, tmpl, in[0], in[1], in[2])
			if _, err := img.ReadPkgs(); err == nil {
				t.Errorf("edge input %d: .pkgs decoded", i)
			}
			if _, err := img.ReadRstrct(); err == nil {
				t.Errorf("edge input %d: .rstrct decoded", i)
			}
			if _, err := img.ReadVerif(); err == nil {
				t.Errorf("edge input %d: .verif decoded", i)
			}
		}
	}
}

// forkWith forks tmpl copy-on-write, so no input reaches the next, and
// overwrites the fork's three metadata sections with the given bytes,
// zero-filling what they do not cover.
func forkWith(t *testing.T, tmpl *linker.Image, pkgs, rstrct, verif []byte) *linker.Image {
	t.Helper()
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
	return img
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

// payload prefixes p with its 8-byte little-endian length, as a metadata
// section stores it.
func payload(p ...byte) []byte {
	return append(binary.LittleEndian.AppendUint64(nil, uint64(len(p))), p...)
}

// sectionBytes reads a metadata section's length prefix and the binary
// payload it declares out of the image's memory. The zero padding after
// it is left out: the fuzz body zero-fills what an input does not cover,
// and a shorter seed keeps the fuzzer's minimisation cheap.
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
