// Package alloc is the simulated language runtime's dynamic memory
// allocator: a span- and size-class-based design modelled on the Go
// heap, extended the way the paper's Go frontend extends mallocgc
// (§5.1) — every span is dynamically assigned to a *package arena*, and
// reassignment goes through LitterBox's Transfer hook so the isolation
// backends can retag page-table entries (pkey_mprotect under LB_MPK,
// presence-bit toggles under LB_VTX). Freed spans return to a central
// pool and are reused for subsequent allocations, even across packages,
// exactly as §4.2 describes.
package alloc

import (
	"errors"
	"fmt"
	"sort"

	"github.com/litterbox-project/enclosure/internal/mem"
)

// SpanPages is the size of a small-object span in pages. Four pages
// matches the paper's transfer micro-benchmark ("calls LitterBox's
// Transfer on a 4-page memory section").
const SpanPages = 4

// SpanBytes is the byte size of a small-object span.
const SpanBytes = SpanPages * mem.PageSize

// sizeClasses are the small-object slot sizes. Allocations above the
// largest class get a dedicated span.
var sizeClasses = []uint64{16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048, 4096, 8192}

// MaxSmall is the largest small-object size.
const MaxSmall = 8192

// MmapFunc maps a fresh heap section of at least size bytes. The runtime
// wires this to the kernel's mmap so span creation is visible as a
// (trusted) system call.
type MmapFunc func(size uint64) (*mem.Section, error)

// TransferFunc reassigns a heap section to a package's arena. The
// runtime wires this to LitterBox's Transfer.
type TransferFunc func(s *mem.Section, toPkg string) error

// Errors reported by the heap.
var (
	ErrNotAllocated = errors.New("alloc: address not allocated")
	ErrDoubleFree   = errors.New("alloc: double free")
	ErrWrongArena   = errors.New("alloc: address belongs to another arena")
	ErrSizeZero     = errors.New("alloc: zero-size allocation")
)

// span is a section carved into equal slots (or one large object).
type span struct {
	sec      *mem.Section
	class    int // index into sizeClasses, -1 for large
	slotSize uint64
	next     uint32   // slots below next have been handed out at least once
	freed    []uint32 // freed-slot stack, reused LIFO before next
	used     int
	large    bool
}

func (s *span) slots() int {
	if s.large {
		return 1
	}
	return int(s.sec.Size / s.slotSize)
}

// Heap is the program-wide allocator. One per simulated program.
type Heap struct {
	mmap     MmapFunc
	transfer TransferFunc

	arenas    map[string]*Arena
	bySec     map[*mem.Section]*span
	byBase    []*span            // sorted by section base, for OwnerOf/FreeAddr lookup
	pool      []*span            // fully free small spans, any prior owner
	largePool map[uint64][]*span // freed large spans by size, for reuse
	poolPkg   string             // package the pooled spans are parked under

	// Stats
	spansCreated int
	transfers    int

	// own maps each span of the heap a clone was made from to the
	// clone's copy (nil unless made by CloneWith); ResetTo restores the
	// clone through it.
	own map[*span]*span
	// made lists, on a clone, the spans mapped since birth or the last
	// ResetTo, in order; ResetTo moves them to spare, and the next
	// tenant's mmap of the same section (mem.AddressSpace.Map hands it
	// back) takes its span from there, spare[:reused] being taken.
	made, spare []*span
	reused      int
}

// NewHeap returns a heap that maps spans with mmap and reassigns them via
// transfer. Pooled (free) spans are parked under poolPkg — typically
// kernel.HeapOwner — so no enclosure's view includes them.
func NewHeap(mmap MmapFunc, transfer TransferFunc, poolPkg string) *Heap {
	return &Heap{
		mmap:      mmap,
		transfer:  transfer,
		arenas:    make(map[string]*Arena),
		bySec:     make(map[*mem.Section]*span),
		largePool: make(map[uint64][]*span),
		poolPkg:   poolPkg,
	}
}

// Arena returns (creating on first use) the named package's arena.
func (h *Heap) Arena(pkg string) *Arena {
	a, ok := h.arenas[pkg]
	if !ok {
		a = &Arena{heap: h, pkg: pkg, partial: make(map[int][]*span)}
		h.arenas[pkg] = a
	}
	return a
}

// Stats returns (spans created, transfers performed).
func (h *Heap) Stats() (spans, transfers int) {
	return h.spansCreated, h.transfers
}

// OwnerOf returns the package arena owning addr, or "" if unallocated.
func (h *Heap) OwnerOf(addr mem.Addr) string {
	if sp := h.spanAt(addr); sp != nil {
		return sp.sec.Pkg
	}
	return ""
}

func (h *Heap) spanAt(addr mem.Addr) *span {
	i := sort.Search(len(h.byBase), func(i int) bool {
		return h.byBase[i].sec.End() > addr
	})
	if i < len(h.byBase) && h.byBase[i].sec.Contains(addr, 1) {
		return h.byBase[i]
	}
	return nil
}

func (h *Heap) insertSpan(sp *span) {
	h.bySec[sp.sec] = sp
	i := sort.Search(len(h.byBase), func(i int) bool {
		return h.byBase[i].sec.Base > sp.sec.Base
	})
	h.byBase = append(h.byBase, nil)
	copy(h.byBase[i+1:], h.byBase[i:])
	h.byBase[i] = sp
}

func (h *Heap) removeSpan(sp *span) {
	delete(h.bySec, sp.sec)
	for i, s := range h.byBase {
		if s == sp {
			h.byBase = append(h.byBase[:i], h.byBase[i+1:]...)
			return
		}
	}
}

// acquireSpan obtains a span for pkg: pooled first, fresh second.
// Either way the span is Transferred into pkg's arena.
func (h *Heap) acquireSpan(pkg string, class int, slotSize, bytes uint64, large bool) (*span, error) {
	var sp *span
	if large {
		if free := h.largePool[bytes]; len(free) > 0 {
			sp = free[len(free)-1]
			h.largePool[bytes] = free[:len(free)-1]
			sp.used = 0
			h.insertSpan(sp)
			if err := h.transfer(sp.sec, pkg); err != nil {
				return nil, fmt.Errorf("alloc: transfer span to %s: %w", pkg, err)
			}
			h.transfers++
			return sp, nil
		}
	}
	if !large && len(h.pool) > 0 {
		sp = h.pool[len(h.pool)-1]
		h.pool = h.pool[:len(h.pool)-1]
		sp.class = class
		sp.slotSize = slotSize
		sp.large = false
		sp.used = 0
		sp.next = 0
		sp.freed = sp.freed[:0]
	} else {
		sec, err := h.mmap(bytes)
		if err != nil {
			return nil, fmt.Errorf("alloc: mmap span: %w", err)
		}
		sp = h.spanOver(sec)
		*sp = span{sec: sec, class: class, slotSize: slotSize, large: large, freed: sp.freed[:0]}
		h.spansCreated++
		h.insertSpan(sp)
	}
	if err := h.transfer(sp.sec, pkg); err != nil {
		return nil, fmt.Errorf("alloc: transfer span to %s: %w", pkg, err)
	}
	h.transfers++
	return sp, nil
}

// spanOver returns a span for a freshly mapped section: on a clone, the
// previous tenant's span over the same section, if one is spare.
func (h *Heap) spanOver(sec *mem.Section) *span {
	if h.own == nil {
		return new(span)
	}
	var sp *span
	for i := h.reused; i < len(h.spare); i++ {
		if h.spare[i].sec == sec {
			h.spare[i], h.spare[h.reused] = h.spare[h.reused], h.spare[i]
			sp = h.spare[h.reused]
			h.reused++
			break
		}
	}
	if sp == nil {
		sp = new(span)
	}
	h.made = append(h.made, sp)
	return sp
}

// releaseSpan parks a fully free small span in the central pool.
func (h *Heap) releaseSpan(sp *span) error {
	if err := h.transfer(sp.sec, h.poolPkg); err != nil {
		return err
	}
	h.transfers++
	h.pool = append(h.pool, sp)
	return nil
}

// Arena is one package's share of the heap.
type Arena struct {
	heap *Heap
	pkg  string
	// partial maps size class -> spans with at least one free slot.
	partial map[int][]*span
	// allocated tracks live large spans for Free.
	nAllocs int64
	nFrees  int64
}

// Live returns outstanding allocation count.
func (a *Arena) Live() int64 {
	return a.nAllocs - a.nFrees
}

func classFor(n uint64) int {
	for i, c := range sizeClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// Alloc carves n bytes out of the arena, pulling in (and Transferring) a
// new span when the size class is exhausted. The address is slot-aligned
// and zeroing is the caller's concern (sections start zeroed; reuse may
// see stale bytes, like any malloc).
func (a *Arena) Alloc(n uint64) (mem.Addr, error) {
	if n == 0 {
		return 0, ErrSizeZero
	}
	h := a.heap

	if n > MaxSmall {
		sp, err := h.acquireSpan(a.pkg, -1, mem.AlignUp(n), mem.AlignUp(n), true)
		if err != nil {
			return 0, err
		}
		sp.used = 1
		a.nAllocs++
		return sp.sec.Base, nil
	}

	class := classFor(n)
	slot := sizeClasses[class]
	spans := a.partial[class]
	var sp *span
	if len(spans) > 0 {
		sp = spans[len(spans)-1]
	} else {
		var err error
		sp, err = h.acquireSpan(a.pkg, class, slot, SpanBytes, false)
		if err != nil {
			return 0, err
		}
		a.partial[class] = append(a.partial[class], sp)
	}
	var idx uint32
	if n := len(sp.freed); n > 0 {
		idx = sp.freed[n-1]
		sp.freed = sp.freed[:n-1]
	} else {
		idx = sp.next
		sp.next++
	}
	sp.used++
	if sp.used == sp.slots() { // span now full: drop from partial list
		list := a.partial[class]
		a.partial[class] = list[:len(list)-1]
	}
	a.nAllocs++
	return sp.sec.Base + mem.Addr(uint64(idx)*slot), nil
}

// Free returns an allocation to the heap. Fully freed spans are parked
// in the central pool (Transferred out of the arena) for reuse by any
// package.
func (a *Arena) Free(addr mem.Addr) error {
	h := a.heap
	sp := h.spanAt(addr)
	if sp == nil {
		return fmt.Errorf("%w: %s", ErrNotAllocated, addr)
	}
	if sp.sec.Pkg != a.pkg {
		return fmt.Errorf("%w: %s owned by %s", ErrWrongArena, addr, sp.sec.Pkg)
	}
	if sp.large {
		if sp.used == 0 {
			return fmt.Errorf("%w: %s", ErrDoubleFree, addr)
		}
		sp.used = 0
		a.nFrees++
		// Park the span in the size-keyed large pool for reuse; a later
		// allocation of the same (page-rounded) size reclaims it.
		h.removeSpan(sp)
		if err := h.transfer(sp.sec, h.poolPkg); err != nil {
			return err
		}
		h.transfers++
		h.largePool[sp.sec.Size] = append(h.largePool[sp.sec.Size], sp)
		return nil
	}
	off := uint64(addr - sp.sec.Base)
	if off%sp.slotSize != 0 {
		return fmt.Errorf("%w: %s (interior pointer)", ErrNotAllocated, addr)
	}
	idx := uint32(off / sp.slotSize)
	if idx >= sp.next {
		return fmt.Errorf("%w: %s", ErrDoubleFree, addr)
	}
	for _, f := range sp.freed {
		if f == idx {
			return fmt.Errorf("%w: %s", ErrDoubleFree, addr)
		}
	}
	wasFull := sp.used == sp.slots()
	sp.freed = append(sp.freed, idx)
	sp.used--
	a.nFrees++
	if sp.used == 0 {
		// Remove from the partial list and park in the pool.
		list := a.partial[sp.class]
		for i, s := range list {
			if s == sp {
				a.partial[sp.class] = append(list[:i], list[i+1:]...)
				break
			}
		}
		return h.releaseSpan(sp)
	}
	if wasFull {
		a.partial[sp.class] = append(a.partial[sp.class], sp)
	}
	return nil
}
