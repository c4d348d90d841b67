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
	"errors"
	"fmt"
	"sort"
	"sync"
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

// String implements fmt.Stringer.
func (k SectionKind) String() string {
	switch k {
	case KindText:
		return "text"
	case KindROData:
		return "rodata"
	case KindData:
		return "data"
	case KindHeap:
		return "heap"
	case KindStack:
		return "stack"
	case KindMeta:
		return "meta"
	default:
		return fmt.Sprintf("SectionKind(%d)", uint8(k))
	}
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

// Pages returns the range of virtual page numbers [first, last] covered.
func (s *Section) Pages() (first, last uint64) {
	return s.Base.PageNumber(), (s.End() - 1).PageNumber()
}

// String implements fmt.Stringer.
func (s *Section) String() string {
	return fmt.Sprintf("%s[%s %s %s-%s]", s.Name, s.Pkg, s.Perm, s.Base, s.End())
}

// Errors surfaced by the address space. Backends wrap these into faults.
var (
	ErrUnmapped    = errors.New("mem: access to unmapped address")
	ErrOutOfRange  = errors.New("mem: access crosses section boundary")
	ErrExhausted   = errors.New("mem: virtual address space exhausted")
	ErrOverlap     = errors.New("mem: sections overlap")
	ErrMisaligned  = errors.New("mem: section not page aligned")
	ErrZeroSize    = errors.New("mem: zero-size section")
	ErrNotMapped   = errors.New("mem: section not mapped in this space")
	ErrDoubleUnmap = errors.New("mem: section already unmapped")
)

// baseVA is where the simulated image is loaded; mirrors a typical ELF
// load address and keeps 0 unmapped so nil-like addresses always fault.
const baseVA Addr = 0x400000

// AddressSpace is the single shared physical+virtual memory of a
// simulated program. Sections are carved from a bump allocator; pages are
// materialised lazily. It is safe for concurrent use.
type AddressSpace struct {
	mu       sync.RWMutex
	pages    map[uint64]*[PageSize]byte
	sections []*Section // sorted by Base
	next     Addr
	limit    Addr

	// Copy-on-write clone state (see cow.go). cow marks pages whose
	// backing array is still shared with the other side of a CloneCoW;
	// dirty and snap exist only on clones and record what Revert must
	// rewind. All three are nil/empty on a space that never cloned.
	cow   map[uint64]bool
	dirty map[uint64]bool
	snap  *cowSnapshot
}

// NewAddressSpace returns an empty address space with the given capacity
// in bytes (rounded up to a page; 0 means a 4 GiB default).
func NewAddressSpace(capacity uint64) *AddressSpace {
	if capacity == 0 {
		capacity = 4 << 30
	}
	return &AddressSpace{
		pages: make(map[uint64]*[PageSize]byte),
		next:  baseVA,
		limit: baseVA + Addr(AlignUp(capacity)),
	}
}

// Map carves a new section of at least size bytes (rounded up to pages)
// out of unused address space and materialises its pages. The paper's
// equivalent is the linker laying out a segregated section or the runtime
// mmap-ing a fresh heap span.
func (as *AddressSpace) Map(name, pkg string, kind SectionKind, size uint64, perm Perm) (*Section, error) {
	if size == 0 {
		return nil, ErrZeroSize
	}
	size = AlignUp(size)
	as.mu.Lock()
	defer as.mu.Unlock()
	if as.next+Addr(size) > as.limit || as.next+Addr(size) < as.next {
		return nil, ErrExhausted
	}
	s := &Section{Name: name, Pkg: pkg, Kind: kind, Base: as.next, Size: size, Perm: perm}
	as.next += Addr(size)
	first, last := s.Pages()
	for p := first; p <= last; p++ {
		as.pages[p] = new([PageSize]byte)
	}
	as.markPagesDirtyLocked(first, last)
	as.sections = append(as.sections, s) // bump allocation keeps order sorted
	return s, nil
}

// Unmap removes a section and releases its pages. Subsequent accesses to
// the range fault with ErrUnmapped.
func (as *AddressSpace) Unmap(s *Section) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	idx := -1
	for i, sec := range as.sections {
		if sec == s {
			idx = i
			break
		}
	}
	if idx < 0 {
		return ErrDoubleUnmap
	}
	as.sections = append(as.sections[:idx], as.sections[idx+1:]...)
	first, last := s.Pages()
	for p := first; p <= last; p++ {
		delete(as.pages, p)
		delete(as.cow, p)
	}
	as.markPagesDirtyLocked(first, last)
	return nil
}

// SetOwner reassigns a heap section to another package's arena. This is
// the storage-level half of LitterBox's Transfer; the backends update
// their page tables / key tags separately.
func (as *AddressSpace) SetOwner(s *Section, pkg string) {
	as.mu.Lock()
	s.Pkg = pkg
	as.mu.Unlock()
}

// SectionAt returns the section containing addr, or nil.
func (as *AddressSpace) SectionAt(addr Addr) *Section {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return as.sectionAtLocked(addr)
}

func (as *AddressSpace) sectionAtLocked(addr Addr) *Section {
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
	as.mu.RLock()
	defer as.mu.RUnlock()
	out := make([]*Section, len(as.sections))
	copy(out, as.sections)
	return out
}

// ReadAt copies len(p) bytes starting at addr into p. It performs no
// permission checks — those belong to the isolation backend — but it does
// fault on unmapped pages, after copying the pages before the first
// unmapped one. The kernel reaches user memory only through its
// copyIn/copyOut pair, which is where a view check on system-call
// buffers belongs.
func (as *AddressSpace) ReadAt(addr Addr, p []byte) error {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return as.copyLocked(addr, p, false)
}

// WriteAt copies p into memory starting at addr. Like ReadAt it checks
// no permissions, faults on the first unmapped page after writing the
// pages before it, and is reached by the kernel only through copyOut.
// A write that lands on a copy-on-write page first promotes it to a
// private copy, so CoW clones never observe each other's writes.
func (as *AddressSpace) WriteAt(addr Addr, p []byte) error {
	as.mu.RLock() // page map is not mutated; page contents race is caller's
	if !as.needsPromoteLocked(addr, uint64(len(p))) {
		defer as.mu.RUnlock()
		return as.copyLocked(addr, p, true)
	}
	as.mu.RUnlock()
	as.mu.Lock()
	defer as.mu.Unlock()
	as.promoteLocked(addr, uint64(len(p)))
	return as.copyLocked(addr, p, true)
}

func (as *AddressSpace) copyLocked(addr Addr, p []byte, write bool) error {
	done := 0
	for done < len(p) {
		a := addr + Addr(done)
		page, ok := as.pages[a.PageNumber()]
		if !ok {
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
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}

// Store64 writes a little-endian uint64.
func (as *AddressSpace) Store64(addr Addr, v uint64) error {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
	return as.WriteAt(addr, b[:])
}

// Mapped reports whether every page of [addr, addr+size) is mapped.
func (as *AddressSpace) Mapped(addr Addr, size uint64) bool {
	if size == 0 {
		return true
	}
	as.mu.RLock()
	defer as.mu.RUnlock()
	first := addr.PageNumber()
	last := (addr + Addr(size) - 1).PageNumber()
	for p := first; p <= last; p++ {
		if _, ok := as.pages[p]; !ok {
			return false
		}
	}
	return true
}
