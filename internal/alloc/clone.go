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
	c := &Heap{
		mmap:      mmap,
		transfer:  transfer,
		arenas:    make(map[string]*Arena),
		bySec:     make(map[*mem.Section]*span),
		largePool: make(map[uint64][]*span),
		own:       make(map[*span]*span),
	}
	c.copyFrom(h, remap)
	return c
}

// ResetTo returns a heap cloned from t (CloneWith) to t's allocation
// state in place, without allocating once the clone has warmed up: the
// clone's own copy of every template span gets its fields back, the
// indexes, pools and arena partial lists are refilled with those copies
// in t's order, and arenas and spans created since birth leave every
// index but are kept, emptied: an arena t lacks holds nothing, as an
// absent one would, and a span mapped since birth waits for the next
// tenant's mmap of its section. The next allocation therefore lands
// exactly where it would in a fresh clone, and a tenant that allocates
// what the previous one did builds no arena or span. t must be the
// heap the clone was made from.
func (h *Heap) ResetTo(t *Heap) {
	h.copyFrom(t, nil)
	h.spare, h.made, h.reused = h.made, h.spare[:0], 0
}

// copyFrom sets h's allocation state to t's, reusing h's copy of each t
// span (own) and making one through remap for spans it has not seen.
func (h *Heap) copyFrom(t *Heap, remap func(*mem.Section) *mem.Section) {
	clear(h.bySec)
	h.byBase = h.translate(h.byBase[:0], t.byBase, remap)
	for _, ns := range h.byBase {
		h.bySec[ns.sec] = ns
	}
	h.pool = h.translate(h.pool[:0], t.pool, remap)
	refill(h, h.largePool, t.largePool, remap)
	for pkg, a := range h.arenas {
		if _, ok := t.arenas[pkg]; !ok {
			a.nAllocs, a.nFrees = 0, 0
			refill(h, a.partial, nil, remap)
		}
	}
	for pkg, ta := range t.arenas {
		a := h.arenas[pkg]
		if a == nil {
			a = &Arena{heap: h, pkg: ta.pkg, partial: make(map[int][]*span, len(ta.partial))}
			h.arenas[pkg] = a
		}
		a.nAllocs, a.nFrees = ta.nAllocs, ta.nFrees
		refill(h, a.partial, ta.partial, remap)
	}
	h.poolPkg, h.spansCreated, h.transfers = t.poolPkg, t.spansCreated, t.transfers
}

// translate appends h's copies of the template spans src to dst, each
// with its template span's current state.
func (h *Heap) translate(dst, src []*span, remap func(*mem.Section) *mem.Section) []*span {
	for _, ts := range src {
		ns := h.own[ts]
		if ns == nil {
			ns = &span{sec: remap(ts.sec)}
			h.own[ts] = ns
		}
		ns.class, ns.slotSize, ns.next, ns.used, ns.large = ts.class, ts.slotSize, ts.next, ts.used, ts.large
		ns.freed = append(ns.freed[:0], ts.freed...)
		dst = append(dst, ns)
	}
	return dst
}

// refill makes dst's span lists h's copies of src's, reusing dst's
// slices and emptying, not dropping, the lists of keys src lacks.
func refill[K comparable](h *Heap, dst, src map[K][]*span, remap func(*mem.Section) *mem.Section) {
	for k, list := range dst {
		if _, ok := src[k]; !ok {
			dst[k] = list[:0]
		}
	}
	for k, list := range src {
		dst[k] = h.translate(dst[k][:0], list, remap)
	}
}
