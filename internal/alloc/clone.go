package alloc

import "github.com/litterbox-project/enclosure/internal/mem"

// CloneWith deep-copies the heap's allocator metadata for a snapshot
// clone: every span, arena, freed-slot stack, and pool list is copied by
// value, with each span's section translated through remap onto the
// clone's address space and the mmap/transfer hooks rewired to the
// clone's runtime. Allocation state (live objects, partial spans,
// pooled spans) carries over exactly — the clone's heap answers OwnerOf
// and Free for addresses the template allocated before capture.
func (h *Heap) CloneWith(mmap MmapFunc, transfer TransferFunc, remap func(*mem.Section) *mem.Section) *Heap {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := &Heap{
		mmap:         mmap,
		transfer:     transfer,
		arenas:       make(map[string]*Arena, len(h.arenas)),
		bySec:        make(map[*mem.Section]*span, len(h.bySec)),
		largePool:    make(map[uint64][]*span, len(h.largePool)),
		poolPkg:      h.poolPkg,
		spansCreated: h.spansCreated,
		transfers:    h.transfers,
	}
	spanOf := make(map[*span]*span, len(h.bySec)+len(h.pool))
	cloneSpan := func(sp *span) *span {
		if ns, ok := spanOf[sp]; ok {
			return ns
		}
		ns := &span{
			sec:      remap(sp.sec),
			class:    sp.class,
			slotSize: sp.slotSize,
			next:     sp.next,
			freed:    append([]uint32(nil), sp.freed...),
			used:     sp.used,
			large:    sp.large,
		}
		spanOf[sp] = ns
		return ns
	}
	c.byBase = make([]*span, len(h.byBase))
	for i, sp := range h.byBase {
		ns := cloneSpan(sp)
		c.byBase[i] = ns
		c.bySec[ns.sec] = ns
	}
	c.pool = make([]*span, len(h.pool))
	for i, sp := range h.pool {
		c.pool[i] = cloneSpan(sp)
	}
	for size, list := range h.largePool {
		nl := make([]*span, len(list))
		for i, sp := range list {
			nl[i] = cloneSpan(sp)
		}
		c.largePool[size] = nl
	}
	for pkg, a := range h.arenas {
		na := &Arena{
			heap:    c,
			pkg:     a.pkg,
			partial: make(map[int][]*span, len(a.partial)),
			nAllocs: a.nAllocs,
			nFrees:  a.nFrees,
		}
		for class, list := range a.partial {
			nl := make([]*span, len(list))
			for i, sp := range list {
				nl[i] = cloneSpan(sp)
			}
			na.partial[class] = nl
		}
		c.arenas[pkg] = na
	}
	return c
}
