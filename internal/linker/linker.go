// Package linker reproduces the paper's Go-frontend link step (§5.1):
// it has global knowledge of the package-dependence graph, assembles one
// "code object" per package into text (RX), rodata (R), and data (RW)
// sections, isolates enclosure closures into their own text sections,
// segregates packages that appear in at least one enclosure so that no
// two marked packages share a page (trivially guaranteed here: sections
// are page-aligned and never share pages), and emits three distinguished
// ELF-style sections into the image:
//
//	.pkgs   — descriptions of every package and its sections
//	.rstrct — enclosure configurations and direct dependencies
//	.verif  — call-site tokens for LitterBox API verification
//
// LitterBox's Init later reads .pkgs and .verif back *from simulated
// memory*, exactly as the real system passes them from the executable.
// The sections use a compact binary wire format (meta.go): an 8-byte
// payload length, then u32 counts, u32-length strings, fixed-width
// little-endian u8/u64 fields and name-sorted symbol tables, decoded by
// one bounds-checked cursor that rejects any count, length or trailing
// byte the payload cannot account for.
package linker

import (
	"fmt"
	"hash/fnv"
	"maps"
	"sort"

	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
)

// Sym locates a named object inside a section.
type Sym struct {
	Addr mem.Addr
	Size uint64
}

// PackageLayout is the placed form of one package.
type PackageLayout struct {
	Name   string
	Text   *mem.Section
	ROData *mem.Section
	Data   *mem.Section

	Funcs  map[string]Sym // entry points in Text
	Consts map[string]Sym // placed constants in ROData
	Vars   map[string]Sym // placed variables in Data
}

// EnclosureDecl is one `with [Policies] func(...)` occurrence registered
// by the parser. The linker isolates its closure into its own text
// section and assigns its verification token.
type EnclosureDecl struct {
	ID     int
	Name   string // e.g. "rcl"
	Pkg    string // declaring package
	Policy string // raw policy literal, validated by the frontend
	Text   *mem.Section
	Token  uint64 // call-site verification token recorded in .verif
}

// Image is the linked executable image.
type Image struct {
	Space *mem.AddressSpace
	Graph *pkggraph.Graph
	// Packages maps names to placed layouts. Static entries are fixed
	// after Link; dynamic imports add entries.
	Packages   map[string]*PackageLayout
	Enclosures []*EnclosureDecl
	Marked     map[string]bool // packages appearing in ≥1 enclosure view

	// birth is a snapshot clone's Packages table as CloneWith built it;
	// while pkgsShared is set, Packages aliases it and PlaceDynamic
	// copies before writing, so Reset can re-point to it in O(1).
	birth      map[string]*PackageLayout
	pkgsShared bool

	PkgsSec   *mem.Section // .pkgs
	RstrctSec *mem.Section // .rstrct
	VerifSec  *mem.Section // .verif
}

// Wire formats stored in the metadata sections.
type (
	// PkgDesc is one .pkgs entry.
	PkgDesc struct {
		Name     string
		Imports  []string
		LOC      int
		Sections []SectionDesc
		Funcs    map[string]Sym
		Consts   map[string]Sym
		Vars     map[string]Sym
	}
	// SectionDesc describes one placed section.
	SectionDesc struct {
		Name string
		Kind uint8
		Base mem.Addr
		Size uint64
		Perm uint8
	}
	// EnclDesc is one .rstrct entry.
	EnclDesc struct {
		ID       int
		Name     string
		Pkg      string
		Policy   string
		TextBase mem.Addr
	}
	// VerifEntry is one .verif entry: the token LitterBox requires at
	// every call-site into its API on behalf of this enclosure.
	VerifEntry struct {
		EnclID int
		Token  uint64
	}
)

// DeclInput is the parser's enclosure registration, pre-linking.
type DeclInput struct {
	Name   string
	Pkg    string
	Policy string
}

// Link lays out the sealed graph's packages and the registered
// enclosures into space and writes the metadata sections.
func Link(graph *pkggraph.Graph, decls []DeclInput, space *mem.AddressSpace) (*Image, error) {
	if !graph.Sealed() {
		return nil, fmt.Errorf("linker: graph must be sealed")
	}
	img := &Image{
		Space:    space,
		Graph:    graph,
		Packages: make(map[string]*PackageLayout),
		Marked:   make(map[string]bool),
	}

	order, err := graph.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, name := range order {
		p, err := graph.Lookup(name)
		if err != nil {
			return nil, err
		}
		pl, err := placePackage(space, p)
		if err != nil {
			return nil, err
		}
		img.Packages[name] = pl
	}

	// Mark packages named in enclosure policies or declaring enclosures,
	// and every natural dependency of a declaring package: these
	// participate in at least one memory view.
	for i, d := range decls {
		if _, ok := img.Packages[d.Pkg]; !ok {
			return nil, fmt.Errorf("linker: enclosure %q declared in unknown package %s", d.Name, d.Pkg)
		}
		text, err := space.Map(fmt.Sprintf("closure.%s.text", d.Name), d.Pkg, mem.KindText, mem.PageSize, mem.PermR|mem.PermX)
		if err != nil {
			return nil, err
		}
		fillText(space, text, "closure:", d.Name)
		decl := &EnclosureDecl{
			ID:     i + 1,
			Name:   d.Name,
			Pkg:    d.Pkg,
			Policy: d.Policy,
			Text:   text,
			Token:  tokenFor(i+1, d.Name, d.Pkg),
		}
		img.Enclosures = append(img.Enclosures, decl)
		img.Marked[d.Pkg] = true
		deps, err := graph.NaturalDeps(d.Pkg)
		if err != nil {
			return nil, err
		}
		for _, dep := range deps {
			img.Marked[dep] = true
		}
	}

	if err := img.emitMetadata(); err != nil {
		return nil, err
	}
	return img, nil
}

// PlaceDynamic lays out a package imported at run time (a dynamic
// language's lazy module load, §5.2) and registers it in the image.
// The graph entry must already exist (pkggraph.AddIncremental).
func (img *Image) PlaceDynamic(p *pkggraph.Package) (*PackageLayout, error) {
	if _, dup := img.Packages[p.Name]; dup {
		return nil, fmt.Errorf("linker: package %s already placed", p.Name)
	}
	pl, err := placePackage(img.Space, p)
	if err != nil {
		return nil, err
	}
	if img.pkgsShared {
		img.Packages = maps.Clone(img.Packages)
		img.pkgsShared = false
	}
	img.Packages[p.Name] = pl
	return pl, nil
}

// Layout returns a placed package's layout (nil if absent).
func (img *Image) Layout(name string) *PackageLayout {
	return img.Packages[name]
}

// Sections returns the three static sections of a placed package.
func (pl *PackageLayout) Sections() []*mem.Section {
	return []*mem.Section{pl.Text, pl.ROData, pl.Data}
}

// placePackage lays out one package's three sections and symbols.
func placePackage(space *mem.AddressSpace, p *pkggraph.Package) (*PackageLayout, error) {
	pl := &PackageLayout{
		Name:   p.Name,
		Funcs:  make(map[string]Sym),
		Consts: make(map[string]Sym),
		Vars:   make(map[string]Sym),
	}

	// Text: 64 synthetic bytes per function, minimum one page.
	funcs := append([]string(nil), p.Funcs...)
	sort.Strings(funcs)
	textSize := uint64(len(funcs)+1) * 64
	text, err := space.Map(p.Name+".text", p.Name, mem.KindText, max64(textSize, mem.PageSize), mem.PermR|mem.PermX)
	if err != nil {
		return nil, err
	}
	pl.Text = text
	off := uint64(0)
	for _, fn := range funcs {
		pl.Funcs[fn] = Sym{Addr: text.Base + mem.Addr(off), Size: 64}
		writeSynthetic(space, text.Base+mem.Addr(off), 64, p.Name, ".", fn)
		off += 64
	}

	// ROData: constants, 8-byte aligned.
	constNames := make([]string, 0, len(p.Consts))
	for n := range p.Consts {
		constNames = append(constNames, n)
	}
	sort.Strings(constNames)
	roSize := uint64(0)
	for _, n := range constNames {
		roSize += align8(uint64(len(p.Consts[n])))
	}
	ro, err := space.Map(p.Name+".rodata", p.Name, mem.KindROData, max64(roSize, mem.PageSize), mem.PermR)
	if err != nil {
		return nil, err
	}
	pl.ROData = ro
	off = 0
	for _, n := range constNames {
		data := p.Consts[n]
		if err := space.WriteAt(ro.Base+mem.Addr(off), data); err != nil {
			return nil, err
		}
		pl.Consts[n] = Sym{Addr: ro.Base + mem.Addr(off), Size: uint64(len(data))}
		off += align8(uint64(len(data)))
	}

	// Data: zero-initialised variables, 8-byte aligned.
	varNames := make([]string, 0, len(p.Vars))
	for n := range p.Vars {
		varNames = append(varNames, n)
	}
	sort.Strings(varNames)
	dataSize := uint64(0)
	for _, n := range varNames {
		dataSize += align8(uint64(p.Vars[n]))
	}
	data, err := space.Map(p.Name+".data", p.Name, mem.KindData, max64(dataSize, mem.PageSize), mem.PermR|mem.PermW)
	if err != nil {
		return nil, err
	}
	pl.Data = data
	off = 0
	for _, n := range varNames {
		size := uint64(p.Vars[n])
		pl.Vars[n] = Sym{Addr: data.Base + mem.Addr(off), Size: size}
		off += align8(size)
	}
	return pl, nil
}

// writeSynthetic fills [addr, addr+size) with deterministic pseudo-code
// derived from the seed, the concatenation of the seed parts. Bytes are
// kept in 0x10..0x8f so a WRPKRU sequence (0F 01 EF) can never occur by
// accident — only tests that deliberately plant one trip the scanner.
// The bytes are generated a stack chunk at a time, so a fill allocates
// nothing.
func writeSynthetic(space *mem.AddressSpace, addr mem.Addr, size uint64, seed ...string) {
	// FNV-1a over the seed, as hash/fnv's New64a computes it.
	x := uint64(14695981039346656037)
	for _, part := range seed {
		for i := 0; i < len(part); i++ {
			x ^= uint64(part[i])
			x *= 1099511628211
		}
	}
	var chunk [512]byte
	for done := uint64(0); done < size; {
		piece := chunk[:min(size-done, uint64(len(chunk)))]
		for i := range piece {
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			piece[i] = byte(0x10 + (x>>57)&0x7f)
		}
		if space.WriteAt(addr+mem.Addr(done), piece) != nil {
			return
		}
		done += uint64(len(piece))
	}
}

func fillText(space *mem.AddressSpace, sec *mem.Section, seed ...string) {
	writeSynthetic(space, sec.Base, sec.Size, seed...)
}

func tokenFor(id int, name, pkg string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "verif|%d|%s|%s", id, name, pkg)
	return h.Sum64()
}

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
