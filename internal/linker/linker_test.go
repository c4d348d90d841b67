package linker

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
)

func sealedGraph(t *testing.T) *pkggraph.Graph {
	t.Helper()
	g := pkggraph.New()
	add := func(p *pkggraph.Package) {
		if err := g.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	add(&pkggraph.Package{
		Name:    "main",
		Imports: []string{"secrets", "libFx"},
		Vars:    map[string]int{"private_key": 64},
	})
	add(&pkggraph.Package{
		Name:   "secrets",
		Vars:   map[string]int{"original": 300},
		Consts: map[string][]byte{"salt": []byte("0123456789")},
	})
	add(&pkggraph.Package{
		Name:    "libFx",
		Imports: []string{"img"},
		Funcs:   []string{"Invert", "Blur"},
	})
	add(&pkggraph.Package{Name: "img", Funcs: []string{"Decode"}})
	if err := g.AddReserved(&pkggraph.Package{Name: pkggraph.UserPkg}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddReserved(&pkggraph.Package{Name: pkggraph.SuperPkg}); err != nil {
		t.Fatal(err)
	}
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}
	return g
}

func linkIt(t *testing.T) *Image {
	t.Helper()
	g := sealedGraph(t)
	img, err := Link(g, []DeclInput{
		{Name: "rcl", Pkg: "main", Policy: "secrets:R; sys:none"},
	}, mem.NewAddressSpace(0))
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestLinkLayout(t *testing.T) {
	img := linkIt(t)
	for _, name := range []string{"main", "secrets", "libFx", "img"} {
		pl := img.Packages[name]
		if pl == nil {
			t.Fatalf("package %s not placed", name)
		}
		if pl.Text == nil || pl.ROData == nil || pl.Data == nil {
			t.Fatalf("%s missing sections", name)
		}
		if pl.Text.Perm != mem.PermR|mem.PermX || pl.ROData.Perm != mem.PermR || pl.Data.Perm != mem.PermR|mem.PermW {
			t.Fatalf("%s wrong perms", name)
		}
	}
	// Symbols land inside their sections.
	lf := img.Packages["libFx"]
	for fn, sym := range lf.Funcs {
		if !lf.Text.Contains(sym.Addr, sym.Size) {
			t.Fatalf("func %s at %s outside text", fn, sym.Addr)
		}
	}
	sc := img.Packages["secrets"]
	if sym := sc.Vars["original"]; sym.Size != 300 || !sc.Data.Contains(sym.Addr, sym.Size) {
		t.Fatalf("var placement %+v", sym)
	}
	if sym := sc.Consts["salt"]; !sc.ROData.Contains(sym.Addr, sym.Size) {
		t.Fatalf("const placement %+v", sym)
	}
	// Constant bytes written.
	buf := make([]byte, 10)
	_ = img.Space.ReadAt(sc.Consts["salt"].Addr, buf)
	if string(buf) != "0123456789" {
		t.Fatalf("const content %q", buf)
	}
}

func TestSectionsNonOverlappingAligned(t *testing.T) {
	img := linkIt(t)
	secs := img.Space.Sections()
	var prev *mem.Section
	for _, s := range secs {
		if !s.Base.PageAligned() || s.Size%mem.PageSize != 0 {
			t.Fatalf("section %s misaligned", s)
		}
		if prev != nil && s.Base < prev.End() {
			t.Fatalf("%s overlaps %s", s, prev)
		}
		prev = s
	}
}

func TestEnclosureDeclarations(t *testing.T) {
	img := linkIt(t)
	if len(img.Enclosures) != 1 {
		t.Fatalf("%d enclosures", len(img.Enclosures))
	}
	d := img.Enclosures[0]
	if d.ID != 1 || d.Name != "rcl" || d.Pkg != "main" {
		t.Fatalf("decl %+v", d)
	}
	if d.Text == nil || d.Text.Pkg != "main" || !d.Text.Perm.Has(mem.PermX) {
		t.Fatalf("closure text %v", d.Text)
	}
	if d.Token == 0 {
		t.Fatal("zero verification token")
	}
	// Marked: declaring package and its natural deps.
	for _, pkg := range []string{"main", "secrets", "libFx", "img"} {
		if !img.Marked[pkg] {
			t.Errorf("%s not marked", pkg)
		}
	}
}

func TestMetadataRoundTrip(t *testing.T) {
	img := linkIt(t)
	pkgs, err := img.ReadPkgs()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PkgDesc{}
	for _, p := range pkgs {
		byName[p.Name] = p
	}
	if len(byName["main"].Sections) != 3 {
		t.Fatalf("main sections %v", byName["main"].Sections)
	}
	if byName["libFx"].Funcs["Invert"].Addr == 0 {
		t.Fatal("func symbol lost in .pkgs")
	}

	encls, err := img.ReadRstrct()
	if err != nil {
		t.Fatal(err)
	}
	if len(encls) != 1 || encls[0].Policy != "secrets:R; sys:none" {
		t.Fatalf(".rstrct %v", encls)
	}
	verifs, err := img.ReadVerif()
	if err != nil {
		t.Fatal(err)
	}
	if len(verifs) != 1 || verifs[0].Token != img.Enclosures[0].Token {
		t.Fatalf(".verif %v", verifs)
	}
	// Metadata sections are owned by super.
	if img.PkgsSec.Pkg != pkggraph.SuperPkg || img.VerifSec.Pkg != pkggraph.SuperPkg {
		t.Fatal("metadata not owned by super")
	}
}

// TestMetadataCodec: a record decodes to exactly what was encoded (less
// its symbol tables when they are only walked), and a symbol table out
// of name order or naming a symbol twice is rejected in both modes, so
// every value has one encoding.
func TestMetadataCodec(t *testing.T) {
	d := PkgDesc{
		Name: "lib", Imports: []string{"a", "b"}, LOC: -3,
		Sections: []SectionDesc{{Name: "lib.text", Kind: 1, Base: 0x1000, Size: mem.PageSize, Perm: 5}},
		Funcs:    map[string]Sym{"B": {Addr: 0x1040, Size: 64}, "A": {Addr: 0x1000, Size: 64}},
		Vars:     map[string]Sym{"v": {Addr: 0x3000, Size: 8}},
	}
	e := newEncoder()
	e.pkg(d)
	c := &cursor{b: e.buf[8:]}
	if got := c.pkg(); c.done() != nil || !reflect.DeepEqual(got, d) {
		t.Fatalf("decoded %+v (%v), want %+v", got, c.done(), d)
	}
	layout := d
	layout.Funcs, layout.Vars = nil, nil
	c = &cursor{b: e.buf[8:], skipSyms: true}
	if got := c.pkg(); c.done() != nil || !reflect.DeepEqual(got, layout) {
		t.Fatalf("walking the symbols decoded %+v (%v), want %+v", got, c.done(), layout)
	}
	for _, names := range [][2]string{{"b", "a"}, {"a", "a"}} {
		e := newEncoder()
		e.u32(2)
		for _, n := range names {
			e.str(n)
			e.u64(0)
			e.u64(0)
		}
		for _, skip := range []bool{false, true} {
			c := &cursor{b: e.buf[8:], skipSyms: skip}
			if c.syms(); c.done() == nil {
				t.Errorf("symbol table %q decoded (skipSyms %v)", names, skip)
			}
		}
	}
}

// TestReadRejectsShortSection: a metadata section shorter than its
// 8-byte length prefix is corrupt. Size-8 must not underflow into a
// bound that accepts the prefix the section's first bytes hold.
func TestReadRejectsShortSection(t *testing.T) {
	img := linkIt(t)
	short := *img.PkgsSec
	short.Size = 4
	img.PkgsSec = &short
	if pkgs, err := img.ReadPkgs(); err == nil {
		t.Fatalf("decoded %d packages from a 4-byte .pkgs section", len(pkgs))
	}
}

func TestLinkErrors(t *testing.T) {
	g := pkggraph.New()
	_ = g.Add(&pkggraph.Package{Name: "a"})
	if _, err := Link(g, nil, mem.NewAddressSpace(0)); err == nil {
		t.Fatal("linked unsealed graph")
	}
	_ = g.Seal()
	if _, err := Link(g, []DeclInput{{Name: "e", Pkg: "ghost"}}, mem.NewAddressSpace(0)); err == nil {
		t.Fatal("enclosure in unknown package linked")
	}
}

// TestSyntheticTextNeverContainsWRPKRU: the generated pseudo-code can
// never contain the 0F 01 EF sequence, for arbitrary symbol names.
func TestSyntheticTextNeverContainsWRPKRU(t *testing.T) {
	wrpkru := []byte{0x0F, 0x01, 0xEF}
	f := func(seed string) bool {
		space := mem.NewAddressSpace(0)
		sec, err := space.Map("t", "p", mem.KindText, mem.PageSize, mem.PermR|mem.PermX)
		if err != nil {
			return false
		}
		writeSynthetic(space, sec.Base, sec.Size, seed)
		buf := make([]byte, sec.Size)
		_ = space.ReadAt(sec.Base, buf)
		return !bytes.Contains(buf, wrpkru) && !bytes.Contains(buf, wrpkru[:1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// referenceSynthetic is writeSynthetic's bytes as first written: a
// fresh hash/fnv hasher over the seed and a fresh buffer per call.
func referenceSynthetic(size uint64, seed string) []byte {
	h := fnv.New64a()
	_, _ = h.Write([]byte(seed))
	x := h.Sum64()
	buf := make([]byte, size)
	for i := range buf {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		buf[i] = byte(0x10 + (x>>57)&0x7f)
	}
	return buf
}

// TestSyntheticMatchesReference: the chunked, allocation-free fill
// writes the reference bytes for short function fills, sizes around
// its chunk, whole-page closure fills and fills that cross pages, with
// the seed given whole or in parts; and it allocates nothing.
func TestSyntheticMatchesReference(t *testing.T) {
	space := mem.NewAddressSpace(0)
	sec, err := space.Map("t", "p", mem.KindText, 4*mem.PageSize, mem.PermR|mem.PermX)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		off, size uint64
		parts     []string
	}{
		{0, 0, []string{"empty"}},
		{0, 1, []string{"one"}},
		{64, 64, []string{"libFx", ".", "Render"}},
		{0, 511, []string{"chunk-1"}},
		{0, 512, []string{"chunk"}},
		{0, 513, []string{"chunk+1"}},
		{0, mem.PageSize, []string{"closure:", "worker"}},
		{mem.PageSize - 100, 2*mem.PageSize + 300, []string{"across pages"}},
	} {
		writeSynthetic(space, sec.Base+mem.Addr(c.off), c.size, c.parts...)
		got := make([]byte, c.size)
		if err := space.ReadAt(sec.Base+mem.Addr(c.off), got); err != nil {
			t.Fatal(err)
		}
		if want := referenceSynthetic(c.size, strings.Join(c.parts, "")); !bytes.Equal(got, want) {
			t.Errorf("%d bytes seeded %q differ from the reference", c.size, c.parts)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		writeSynthetic(space, sec.Base, mem.PageSize, "closure:", "worker")
	}); allocs != 0 {
		t.Errorf("a whole-page fill allocates %.0f objects", allocs)
	}
}

func TestTokensUniquePerEnclosure(t *testing.T) {
	g := sealedGraph(t)
	decls := []DeclInput{
		{Name: "a", Pkg: "main", Policy: "sys:none"},
		{Name: "b", Pkg: "main", Policy: "sys:none"},
		{Name: "c", Pkg: "libFx", Policy: "sys:none"},
	}
	img, err := Link(g, decls, mem.NewAddressSpace(0))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, d := range img.Enclosures {
		if seen[d.Token] {
			t.Fatalf("token collision for %s", d.Name)
		}
		seen[d.Token] = true
	}
}

// TestLinkDeterministic: linking the same input twice yields identical
// layouts.
func TestLinkDeterministic(t *testing.T) {
	a := linkIt(t)
	b := linkIt(t)
	for name, pa := range a.Packages {
		pb := b.Packages[name]
		if pa.Text.Base != pb.Text.Base || pa.Data.Base != pb.Data.Base {
			t.Fatalf("%s layout differs between links", name)
		}
		for fn, sym := range pa.Funcs {
			if pb.Funcs[fn] != sym {
				t.Fatalf("%s.%s symbol differs", name, fn)
			}
		}
	}
}

func TestManyPackagesLayout(t *testing.T) {
	g := pkggraph.New()
	for i := 0; i < 100; i++ {
		p := &pkggraph.Package{Name: fmt.Sprintf("p%03d", i)}
		if i > 0 {
			p.Imports = []string{fmt.Sprintf("p%03d", i-1)}
		}
		p.Vars = map[string]int{"v": i * 17}
		if err := g.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	_ = g.AddReserved(&pkggraph.Package{Name: pkggraph.UserPkg})
	_ = g.AddReserved(&pkggraph.Package{Name: pkggraph.SuperPkg})
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}
	img, err := Link(g, []DeclInput{{Name: "deep", Pkg: "p099", Policy: "sys:none"}}, mem.NewAddressSpace(0))
	if err != nil {
		t.Fatal(err)
	}
	// All 99 transitive deps must be marked.
	if len(img.Marked) != 100 {
		t.Fatalf("marked %d packages, want 100", len(img.Marked))
	}
}
