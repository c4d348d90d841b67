package linker

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
)

// This file is the wire format of the three metadata sections. Each
// section holds an 8-byte little-endian payload length, then the
// payload: a u32 record count and that many records. Records are built
// from u8 and u64 fixed-width little-endian fields, u32-length strings,
// and u32-counted lists; a symbol table is a list of (name, addr, size)
// in strictly ascending name order, so every value has exactly one
// encoding. Init decodes these bytes out of a world's own memory, so the
// decoder treats them as untrusted: one bounds-checked cursor rejects a
// count or length the remaining bytes cannot hold before allocating for
// it, and rejects bytes after the last record.

// Smallest encoding of each record kind: its fixed-width fields plus a
// zero count or length for each string and list it holds.
const (
	strMinSize     = 4
	symMinSize     = strMinSize + 8 + 8
	sectionMinSize = strMinSize + 1 + 8 + 8 + 1
	pkgMinSize     = strMinSize + 4 + 8 + 4 + 3*4
	enclMinSize    = 8 + 3*strMinSize + 8
	verifMinSize   = 8 + 8
)

// emitMetadata writes .pkgs, .rstrct, and .verif into the image.
func (img *Image) emitMetadata() error {
	pkgs := newEncoder()
	names := img.Graph.Names()
	pkgs.u32(uint32(len(names)))
	for _, name := range names {
		p, err := img.Graph.Lookup(name)
		if err != nil {
			return err
		}
		pl := img.Packages[name]
		pkgs.pkg(PkgDesc{
			Name:     name,
			Imports:  p.Imports,
			LOC:      p.Meta.LOC,
			Sections: []SectionDesc{sectionDesc(pl.Text), sectionDesc(pl.ROData), sectionDesc(pl.Data)},
			Funcs:    pl.Funcs,
			Consts:   pl.Consts,
			Vars:     pl.Vars,
		})
	}
	encls, verifs := newEncoder(), newEncoder()
	encls.u32(uint32(len(img.Enclosures)))
	verifs.u32(uint32(len(img.Enclosures)))
	for _, d := range img.Enclosures {
		encls.encl(EnclDesc{ID: d.ID, Name: d.Name, Pkg: d.Pkg, Policy: d.Policy, TextBase: d.Text.Base})
		verifs.verif(VerifEntry{EnclID: d.ID, Token: d.Token})
	}

	var err error
	if img.PkgsSec, err = writeMetaSection(img.Space, ".pkgs", pkgs); err != nil {
		return err
	}
	if img.RstrctSec, err = writeMetaSection(img.Space, ".rstrct", encls); err != nil {
		return err
	}
	img.VerifSec, err = writeMetaSection(img.Space, ".verif", verifs)
	return err
}

// ReadPkgs decodes the .pkgs section back out of simulated memory.
func (img *Image) ReadPkgs() ([]PkgDesc, error) { return img.readPkgs(false) }

// ReadPkgLayout decodes .pkgs as ReadPkgs does and rejects exactly the
// bytes ReadPkgs rejects, but leaves every descriptor's Funcs, Consts
// and Vars nil: the same cursor walks the symbol tables, checking their
// bounds and name order, without building the maps. Init checks each
// package's name and sections and nothing else.
func (img *Image) ReadPkgLayout() ([]PkgDesc, error) { return img.readPkgs(true) }

func (img *Image) readPkgs(skipSyms bool) ([]PkgDesc, error) {
	return readMetaSection(img.Space, img.PkgsSec, pkgMinSize, func(c *cursor) PkgDesc {
		c.skipSyms = skipSyms
		return c.pkg()
	})
}

// ReadRstrct decodes the .rstrct section from simulated memory.
func (img *Image) ReadRstrct() ([]EnclDesc, error) {
	return readMetaSection(img.Space, img.RstrctSec, enclMinSize, (*cursor).encl)
}

// ReadVerif decodes the .verif section from simulated memory.
func (img *Image) ReadVerif() ([]VerifEntry, error) {
	return readMetaSection(img.Space, img.VerifSec, verifMinSize, (*cursor).verif)
}

func sectionDesc(s *mem.Section) SectionDesc {
	return SectionDesc{Name: s.Name, Kind: uint8(s.Kind), Base: s.Base, Size: s.Size, Perm: uint8(s.Perm)}
}

// writeMetaSection stores e's length-prefixed payload in a fresh
// KindMeta section owned by LitterBox's super package.
func writeMetaSection(space *mem.AddressSpace, name string, e *encoder) (*mem.Section, error) {
	binary.LittleEndian.PutUint64(e.buf, uint64(len(e.buf)-8))
	sec, err := space.Map(name, pkggraph.SuperPkg, mem.KindMeta, uint64(len(e.buf)), mem.PermR)
	if err != nil {
		return nil, err
	}
	if err := space.WriteAt(sec.Base, e.buf); err != nil {
		return nil, err
	}
	return sec, nil
}

// readMetaSection decodes a section writeMetaSection wrote as a list of
// records of at least minSize bytes each. A section shorter than its
// length prefix, or a prefix claiming more than the section holds, is
// rejected before allocating.
func readMetaSection[T any](space *mem.AddressSpace, sec *mem.Section, minSize int, rec func(*cursor) T) ([]T, error) {
	if sec.Size < 8 {
		return nil, fmt.Errorf("linker: metadata section %s is shorter than its length prefix", sec.Name)
	}
	n, err := space.Load64(sec.Base)
	if err != nil {
		return nil, err
	}
	if n > sec.Size-8 {
		return nil, fmt.Errorf("linker: corrupt metadata section %s: length %d past the section", sec.Name, n)
	}
	c := &cursor{b: make([]byte, n)}
	if err := space.ReadAt(sec.Base+8, c.b); err != nil {
		return nil, err
	}
	out := list(c, minSize, rec)
	if err := c.done(); err != nil {
		return nil, fmt.Errorf("linker: corrupt metadata section %s: %w", sec.Name, err)
	}
	return out, nil
}

// encoder appends the wire format to buf, which starts with room for
// the length prefix.
type encoder struct{ buf []byte }

func newEncoder() *encoder { return &encoder{buf: make([]byte, 8, 512)} }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) syms(m map[string]Sym) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	e.u32(uint32(len(names)))
	for _, n := range names {
		e.str(n)
		e.u64(uint64(m[n].Addr))
		e.u64(m[n].Size)
	}
}

func (e *encoder) pkg(d PkgDesc) {
	e.str(d.Name)
	e.u32(uint32(len(d.Imports)))
	for _, imp := range d.Imports {
		e.str(imp)
	}
	e.u64(uint64(d.LOC))
	e.u32(uint32(len(d.Sections)))
	for _, s := range d.Sections {
		e.str(s.Name)
		e.u8(s.Kind)
		e.u64(uint64(s.Base))
		e.u64(s.Size)
		e.u8(s.Perm)
	}
	e.syms(d.Funcs)
	e.syms(d.Consts)
	e.syms(d.Vars)
}

func (e *encoder) encl(d EnclDesc) {
	e.u64(uint64(d.ID))
	e.str(d.Name)
	e.str(d.Pkg)
	e.str(d.Policy)
	e.u64(uint64(d.TextBase))
}

func (e *encoder) verif(v VerifEntry) {
	e.u64(uint64(v.EnclID))
	e.u64(v.Token)
}

var errTruncated = errors.New("payload ends inside a record")

// cursor decodes a payload. The first failure sticks: every later read
// returns a zero value, and done reports the failure. With skipSyms set,
// syms checks a symbol table without returning it.
type cursor struct {
	b        []byte
	err      error
	skipSyms bool
}

func (c *cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// take consumes the next n bytes; nil means they are not there or an
// earlier read failed.
func (c *cursor) take(n uint64) []byte {
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.b)) {
		c.fail(errTruncated)
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

func (c *cursor) u8() uint8 {
	if p := c.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if p := c.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if p := c.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (c *cursor) str() string { return string(c.take(uint64(c.u32()))) }

// count reads a list length and rejects one that the remaining bytes
// cannot hold at minSize bytes per element.
func (c *cursor) count(minSize int) int {
	n := c.u32()
	if uint64(n)*uint64(minSize) > uint64(len(c.b)) {
		c.fail(fmt.Errorf("count %d of %d-byte records past the %d bytes left", n, minSize, len(c.b)))
		return 0
	}
	return int(n)
}

// done reports the first failure, or bytes left after the last record.
func (c *cursor) done() error {
	if c.err == nil && len(c.b) != 0 {
		c.err = fmt.Errorf("%d trailing bytes", len(c.b))
	}
	return c.err
}

// list decodes a counted list; an empty one is nil.
func list[T any](c *cursor, minSize int, rec func(*cursor) T) []T {
	n := c.count(minSize)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = rec(c)
	}
	return out
}

func (c *cursor) syms() map[string]Sym {
	n := c.count(symMinSize)
	if n == 0 {
		return nil
	}
	var m map[string]Sym
	if !c.skipSyms {
		m = make(map[string]Sym, n)
	}
	var prev []byte
	for i := 0; i < n; i++ {
		name := c.take(uint64(c.u32()))
		if i > 0 && bytes.Compare(name, prev) <= 0 {
			c.fail(fmt.Errorf("symbol %q after %q breaks name order", name, prev))
		}
		sym := Sym{Addr: mem.Addr(c.u64()), Size: c.u64()}
		if m != nil {
			m[string(name)] = sym
		}
		prev = name
	}
	return m
}

func (c *cursor) section() SectionDesc {
	return SectionDesc{Name: c.str(), Kind: c.u8(), Base: mem.Addr(c.u64()), Size: c.u64(), Perm: c.u8()}
}

func (c *cursor) pkg() PkgDesc {
	return PkgDesc{
		Name:     c.str(),
		Imports:  list(c, strMinSize, (*cursor).str),
		LOC:      int(c.u64()),
		Sections: list(c, sectionMinSize, (*cursor).section),
		Funcs:    c.syms(),
		Consts:   c.syms(),
		Vars:     c.syms(),
	}
}

func (c *cursor) encl() EnclDesc {
	return EnclDesc{ID: int(c.u64()), Name: c.str(), Pkg: c.str(), Policy: c.str(), TextBase: mem.Addr(c.u64())}
}

func (c *cursor) verif() VerifEntry {
	return VerifEntry{EnclID: int(c.u64()), Token: c.u64()}
}
