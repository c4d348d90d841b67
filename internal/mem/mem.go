// Package mem implements the simulated virtual address space that stands
// in for the process memory the paper partitions.
//
// The paper assumes packages have a well-defined layout: page-aligned,
// non-overlapping sections that never share a page (§2.3). This package
// provides exactly that abstraction — a LitterBox *section* is "a
// contiguous, page-aligned virtual memory region in the program's address
// space" characterised by start, size, and default access rights (§4.1).
// All program data in this reproduction lives here; the isolation
// backends interpose on every access, so an out-of-view access faults in
// software precisely where MPK or VT-x hardware would have faulted.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// PageSize is the page granularity of the simulated MMU (4 KiB).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Addr is a simulated virtual address.
type Addr uint64

// PageNumber returns the virtual page number containing a.
func (a Addr) PageNumber() uint64 { return uint64(a) >> PageShift }

// PageOffset returns the offset of a within its page.
func (a Addr) PageOffset() uint64 { return uint64(a) & (PageSize - 1) }

// PageAligned reports whether a is page aligned.
func (a Addr) PageAligned() bool { return a.PageOffset() == 0 }

// String renders the address in hex.
func (a Addr) String() string { return fmt.Sprintf("%#x", uint64(a)) }

// PageRange returns the first and last page numbers of [addr, addr+size),
// or ok false for an empty range or one whose end wraps past 2^64, which
// callers must refuse rather than loop over.
func PageRange(addr Addr, size uint64) (first, last uint64, ok bool) {
	end := uint64(addr) + size - 1
	if size == 0 || end < uint64(addr) {
		return 0, 0, false
	}
	return addr.PageNumber(), end >> PageShift, true
}

// AlignUp rounds n up to the next multiple of PageSize.
func AlignUp(n uint64) uint64 {
	return (n + PageSize - 1) &^ (PageSize - 1)
}

// Perm is a set of access rights on a section or page-table entry.
type Perm uint8

// Access right bits, matching the paper's R/W/X section characterisation.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
	// PermNone marks an unmapped or fully revoked entry.
	PermNone Perm = 0
)

// Has reports whether p includes every bit of q.
func (p Perm) Has(q Perm) bool { return p&q == q }

// String renders the permission like "rwx", "r-x", "---".
func (p Perm) String() string {
	b := []byte("---")
	if p.Has(PermR) {
		b[0] = 'r'
	}
	if p.Has(PermW) {
		b[1] = 'w'
	}
	if p.Has(PermX) {
		b[2] = 'x'
	}
	return string(b)
}

// SectionKind classifies a section the way the paper's Go frontend emits
// them: one text (RX), rodata (R), and data (RW) section per package,
// plus dynamically mapped heap sections that join a package's arena.
type SectionKind uint8

const (
	// KindText holds a package's functions.
	KindText SectionKind = iota
	// KindROData holds a package's constants.
	KindROData
	// KindData holds a package's static variables.
	KindData
	// KindHeap is a dynamically allocated span belonging to an arena.
	KindHeap
	// KindStack backs a simulated goroutine stack.
	KindStack
	// KindMeta holds LitterBox-internal structures (.pkgs/.rstrct/.verif).
	KindMeta
)

var kindNames = [...]string{KindText: "text", KindROData: "rodata", KindData: "data",
	KindHeap: "heap", KindStack: "stack", KindMeta: "meta"}

// String implements fmt.Stringer.
func (k SectionKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("SectionKind(%d)", uint8(k))
}

// DefaultPerm returns the access rights the linker assigns sections of
// this kind (text RX, rodata R, data/heap/stack RW).
func (k SectionKind) DefaultPerm() Perm {
	switch k {
	case KindText:
		return PermR | PermX
	case KindROData:
		return PermR
	default:
		return PermR | PermW
	}
}

// Section is a contiguous, page-aligned region owned by one package. Its
// identity is stable for the life of the address space; Transfer changes
// the owning package in place (heap spans only).
type Section struct {
	Name string // e.g. "img.text", "span-42"
	Pkg  string // owning package; mutated only via SetOwner
	Kind SectionKind
	Base Addr
	Size uint64 // bytes, multiple of PageSize
	Perm Perm   // default access rights
}

// End returns the first address past the section.
func (s *Section) End() Addr { return s.Base + Addr(s.Size) }

// Contains reports whether [addr, addr+size) lies inside the section.
func (s *Section) Contains(addr Addr, size uint64) bool {
	return addr >= s.Base && size <= s.Size && uint64(addr-s.Base) <= s.Size-size
}

// String implements fmt.Stringer.
func (s *Section) String() string {
	return fmt.Sprintf("%s[%s %s %s-%s]", s.Name, s.Pkg, s.Perm, s.Base, s.End())
}

// Errors surfaced by the address space. Backends wrap these into faults.
var (
	ErrUnmapped    = errors.New("mem: access to unmapped address")
	ErrExhausted   = errors.New("mem: virtual address space exhausted")
	ErrOverlap     = errors.New("mem: sections overlap")
	ErrMisaligned  = errors.New("mem: section not page aligned")
	ErrZeroSize    = errors.New("mem: zero-size section")
	ErrDoubleUnmap = errors.New("mem: section already unmapped")
)

// baseVA is where the simulated image is loaded; mirrors a typical ELF
// load address and keeps 0 unmapped so nil-like addresses always fault.
const baseVA Addr = 0x400000

// PageIndex returns page number p's index in a dense page table: its
// distance from baseVA's page. A page below baseVA gets a negative
// index, which no table holds, so it reads as unmapped.
func PageIndex(p uint64) int { return int(p - uint64(baseVA)>>PageShift) }

// AddressSpace is the single shared physical+virtual memory of a
// simulated program. Sections are carved from a bump allocator starting
// at baseVA, so page numbers are dense: the page table is a slice
// indexed by PageIndex that reaches as far as the allocator has, with
// nil for a page that is not mapped. It belongs to one program and is
// used under that program's run token.
type AddressSpace struct {
	pages    []page     // len(pages) == (next-baseVA)/PageSize
	sections []*Section // sorted by Base
	next     Addr
	limit    Addr

	// snap exists only on checkpointed spaces and records what Revert
	// must rewind (see cow.go).
	snap *cowSnapshot
	// clone is set by CloneCoW: the space aliases arrays it does not
	// own, so ReleaseFamily refuses it as a root.
	clone bool
}

// page is one page-table entry: the backing array, nil when the page is
// not mapped, and whether that array is still shared copy-on-write —
// with the other side of a CloneCoW, or, for a page no write has
// reached yet, with every other such page (zeroPage).
type page struct {
	arr *[PageSize]byte
	cow bool
}

// page returns the entry at page index i; an index outside the table is
// an unmapped page.
func (as *AddressSpace) page(i int) page {
	if uint(i) < uint(len(as.pages)) {
		return as.pages[i]
	}
	return page{}
}

// NewAddressSpace returns an empty address space with the given capacity
// in bytes (rounded up to a page; 0 means a 4 GiB default).
func NewAddressSpace(capacity uint64) *AddressSpace {
	if capacity == 0 {
		capacity = 4 << 30
	}
	return &AddressSpace{
		next:  baseVA,
		limit: baseVA + Addr(AlignUp(capacity)),
	}
}

// Map carves a new section of at least size bytes (rounded up to pages)
// out of unused address space. Its pages are demand-zero: each one
// points at the shared zeroPage, marked copy-on-write, so mapping
// allocates no page array and the first write to a page gives it a
// private one (see promote). The paper's equivalent is the linker
// laying out a segregated section or the runtime mmap-ing a fresh heap
// span, which the kernel backs with its shared zero page the same way.
// On a reverted space, a Map at the base and size of a section Revert
// cut off returns that *Section again, with its fields set anew.
func (as *AddressSpace) Map(name, pkg string, kind SectionKind, size uint64, perm Perm) (*Section, error) {
	if size == 0 {
		return nil, ErrZeroSize
	}
	size = AlignUp(size)
	if as.next+Addr(size) > as.limit || as.next+Addr(size) < as.next {
		return nil, ErrExhausted
	}
	s := as.reclaim(size)
	if s == nil {
		s = new(Section)
	}
	*s = Section{Name: name, Pkg: pkg, Kind: kind, Base: as.next, Size: size, Perm: perm}
	as.next += Addr(size)
	first, n := len(as.pages), int(size>>PageShift)
	as.pages = slices.Grow(as.pages, n)
	for range n {
		as.pages = append(as.pages, page{arr: &zeroPage, cow: true})
	}
	as.markPagesDirty(first, len(as.pages)-1)
	as.sections = append(as.sections, s) // bump allocation keeps order sorted
	return s, nil
}

// Unmap removes a section and releases its pages. Subsequent accesses to
// the range fault with ErrUnmapped.
func (as *AddressSpace) Unmap(s *Section) error {
	idx := slices.Index(as.sections, s)
	if idx < 0 {
		return ErrDoubleUnmap
	}
	as.sections = slices.Delete(as.sections, idx, idx+1)
	first, last, _ := PageRange(s.Base, s.Size)
	for i := PageIndex(first); i <= PageIndex(last); i++ {
		as.pages[i] = page{}
	}
	as.markPagesDirty(PageIndex(first), PageIndex(last))
	if as.snap != nil && s.Base < as.snap.next {
		as.snap.unmapped = true
	}
	return nil
}

// SetOwner reassigns a heap section to another package's arena. This is
// the storage-level half of LitterBox's Transfer; the backends update
// their page tables / key tags separately.
func (as *AddressSpace) SetOwner(s *Section, pkg string) {
	if as.snap != nil && s.Base < as.snap.next {
		as.snap.owners = append(as.snap.owners, ownerUndo{s, s.Pkg})
	}
	s.Pkg = pkg
}

// SectionAt returns the section containing addr, or nil.
func (as *AddressSpace) SectionAt(addr Addr) *Section {
	i := sort.Search(len(as.sections), func(i int) bool {
		return as.sections[i].End() > addr
	})
	if i < len(as.sections) && as.sections[i].Contains(addr, 1) {
		return as.sections[i]
	}
	return nil
}

// Sections returns a snapshot of all mapped sections in address order.
func (as *AddressSpace) Sections() []*Section {
	return slices.Clone(as.sections)
}

// ReadAt copies len(p) bytes starting at addr into p. It performs no
// permission checks — those belong to the isolation backend — but it does
// fault on unmapped pages, after copying the pages before the first
// unmapped one. The kernel reaches user memory only through its
// copyIn/copyOut pair, which is where a view check on system-call
// buffers belongs.
func (as *AddressSpace) ReadAt(addr Addr, p []byte) error {
	return as.copy(addr, p, false)
}

// WriteAt copies p into memory starting at addr. Like ReadAt it checks
// no permissions, faults on the first unmapped page after writing the
// pages before it, and is reached by the kernel only through copyOut.
// A write that lands on a copy-on-write page first promotes it to a
// private copy, so CoW clones never observe each other's writes.
func (as *AddressSpace) WriteAt(addr Addr, p []byte) error {
	as.promote(addr, uint64(len(p)))
	return as.copy(addr, p, true)
}

func (as *AddressSpace) copy(addr Addr, p []byte, write bool) error {
	done := 0
	for done < len(p) {
		a := addr + Addr(done)
		page := as.page(PageIndex(a.PageNumber())).arr
		if page == nil {
			return fmt.Errorf("%w: %s", ErrUnmapped, a)
		}
		off := int(a.PageOffset())
		n := PageSize - off
		if rem := len(p) - done; n > rem {
			n = rem
		}
		if write {
			copy(page[off:off+n], p[done:done+n])
		} else {
			copy(p[done:done+n], page[off:off+n])
		}
		done += n
	}
	return nil
}

// Load8 reads a single byte.
func (as *AddressSpace) Load8(addr Addr) (byte, error) {
	var b [1]byte
	if err := as.ReadAt(addr, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// Store8 writes a single byte.
func (as *AddressSpace) Store8(addr Addr, v byte) error {
	b := [1]byte{v}
	return as.WriteAt(addr, b[:])
}

// Load64 reads a little-endian uint64.
func (as *AddressSpace) Load64(addr Addr) (uint64, error) {
	var b [8]byte
	if err := as.ReadAt(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Store64 writes a little-endian uint64.
func (as *AddressSpace) Store64(addr Addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return as.WriteAt(addr, b[:])
}

// Mapped reports whether every page of [addr, addr+size) is mapped. A
// range that wraps past 2^64 is not.
func (as *AddressSpace) Mapped(addr Addr, size uint64) bool {
	first, last, ok := PageRange(addr, size)
	if !ok {
		return size == 0
	}
	for i := PageIndex(first); i <= PageIndex(last); i++ {
		if as.page(i).arr == nil {
			return false
		}
	}
	return true
}
