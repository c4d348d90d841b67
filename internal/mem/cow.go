package mem

import (
	"errors"
	"sync"
)

// This file implements copy-on-write cloning of an address space — the
// storage half of warm-enclosure snapshots. CloneCoW aliases every
// materialised page between the template and the clone; the first write
// on either side promotes (privately copies) just the touched pages, so
// a clone costs one map copy instead of re-materialising and re-filling
// the image. A clone additionally keeps a revert snapshot: the exact
// page array, section list, and section values it was born with. Revert
// walks only the dirty set, which makes recycling a pooled instance
// O(pages actually written by the request), not O(image).

// pagePool recycles the page arrays a Revert releases into later Maps
// and promotions, process-wide so an idle pooled instance holds no
// spare pages. Page arrays never leave this package, so a released
// page has no other owner.
var pagePool = sync.Pool{New: func() any { return new([PageSize]byte) }}

// ErrNoSnapshot is returned by Revert on a space that was not created
// by CloneCoW.
var ErrNoSnapshot = errors.New("mem: address space has no revert snapshot")

// cowSnapshot is the birth state of a cloned space: enough to rewind
// every mutation (writes, maps, unmaps, owner transfers) in O(dirty).
type cowSnapshot struct {
	pages map[uint64]*[PageSize]byte
	secs  []*Section // the clone's section pointers at birth, in order
	vals  []Section  // their field values at birth (undoes SetOwner etc.)
	next  Addr
}

// CloneCoW returns a copy-on-write clone of the address space and the
// section identity map (template section -> clone section). The clone
// sees bit-identical contents at identical addresses; neither side can
// observe the other's subsequent writes. Both sides pay promote-on-first-
// write for pages that were shared at clone time.
func (as *AddressSpace) CloneCoW() (*AddressSpace, map[*Section]*Section) {
	as.mu.Lock()
	defer as.mu.Unlock()

	clone := &AddressSpace{
		pages: make(map[uint64]*[PageSize]byte, len(as.pages)),
		cow:   make(map[uint64]bool, len(as.pages)),
		dirty: make(map[uint64]bool),
		next:  as.next,
		limit: as.limit,
	}
	if as.cow == nil {
		as.cow = make(map[uint64]bool, len(as.pages))
	}
	for p, arr := range as.pages {
		clone.pages[p] = arr // alias: promote-on-write splits it
		clone.cow[p] = true
		as.cow[p] = true
	}

	secMap := make(map[*Section]*Section, len(as.sections))
	clone.sections = make([]*Section, len(as.sections))
	vals := make([]Section, len(as.sections))
	for i, s := range as.sections {
		ns := new(Section)
		*ns = *s
		clone.sections[i] = ns
		vals[i] = *ns
		secMap[s] = ns
	}

	snapPages := make(map[uint64]*[PageSize]byte, len(clone.pages))
	for p, arr := range clone.pages {
		snapPages[p] = arr
	}
	clone.snap = &cowSnapshot{
		pages: snapPages,
		secs:  append([]*Section(nil), clone.sections...),
		vals:  vals,
		next:  clone.next,
	}
	return clone, secMap
}

// needsPromoteLocked reports whether any page of [addr, addr+size) is
// still shared copy-on-write. Called under either lock mode (the cow
// map is only mutated under the write lock).
func (as *AddressSpace) needsPromoteLocked(addr Addr, size uint64) bool {
	if len(as.cow) == 0 || size == 0 {
		return false
	}
	first := addr.PageNumber()
	last := (addr + Addr(size) - 1).PageNumber()
	for p := first; p <= last; p++ {
		if as.cow[p] {
			return true
		}
	}
	return false
}

// promoteLocked privately copies every still-shared page of the range so
// a subsequent write cannot leak into the other side of a CoW clone.
// Requires the write lock.
func (as *AddressSpace) promoteLocked(addr Addr, size uint64) {
	first := addr.PageNumber()
	last := (addr + Addr(size) - 1).PageNumber()
	for p := first; p <= last; p++ {
		if !as.cow[p] {
			continue
		}
		priv := pagePool.Get().(*[PageSize]byte)
		*priv = *as.pages[p]
		as.pages[p] = priv
		delete(as.cow, p)
		if as.snap != nil {
			as.dirty[p] = true
		}
	}
}

// markPagesDirtyLocked records post-clone page-map mutations (map/unmap)
// so Revert knows to reconcile them. Requires the write lock.
func (as *AddressSpace) markPagesDirtyLocked(first, last uint64) {
	if as.snap == nil {
		return
	}
	for p := first; p <= last; p++ {
		as.dirty[p] = true
		delete(as.cow, p)
	}
}

// Revert rewinds a cloned address space to its birth snapshot: dirty
// pages are re-aliased to the template-shared arrays (or dropped if they
// were mapped after the clone), the section list and every section's
// field values are restored, and the bump allocator rewinds. The cost is
// proportional to the dirty set, which is what makes pooled recycling
// an order of magnitude cheaper than a fresh clone. Dirty pages the
// clone owns privately go back to pagePool; a page still marked cow is
// shared with a later clone of this one and is left to it.
func (as *AddressSpace) Revert() error {
	as.mu.Lock()
	defer as.mu.Unlock()
	if as.snap == nil {
		return ErrNoSnapshot
	}
	for p := range as.dirty {
		if arr := as.pages[p]; arr != nil && !as.cow[p] {
			pagePool.Put(arr)
		}
		if arr, ok := as.snap.pages[p]; ok {
			as.pages[p] = arr
			as.cow[p] = true
		} else {
			delete(as.pages, p)
			delete(as.cow, p)
		}
	}
	clear(as.dirty)
	as.sections = as.sections[:0]
	as.sections = append(as.sections, as.snap.secs...)
	for i, s := range as.snap.secs {
		*s = as.snap.vals[i]
	}
	as.next = as.snap.next
	return nil
}
