package mpk

import (
	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/mem"
)

// journal records what a cloned unit changed since birth, so Revert
// costs O(pages the tenant retagged) instead of a full page-map copy —
// the tag-side counterpart of mem.AddressSpace's dirty set.
type journal struct {
	used  [hw.NumKeys]bool
	muts  int64
	pages map[uint64]pageUndo // first change of each page since birth
}

// pageUndo is a page's entry before its first change: had is false when
// the page was untracked (default key, section permissions).
type pageUndo struct {
	prev pte
	had  bool
}

// notePage saves page p's current entry unless an earlier change since
// birth already did.
func (j *journal) notePage(pages map[uint64]pte, p uint64) {
	if _, seen := j.pages[p]; seen {
		return
	}
	prev, had := pages[p]
	j.pages[p] = pageUndo{prev: prev, had: had}
}

// Clone returns an independent MPK unit over a cloned address space:
// the key-allocation bitmap and every page's key tag are copied by
// value. Key numbers are preserved, so environments' published PKRU
// values remain valid in the clone, and the clone needs no fresh
// WRPKRU gadget scan — its text pages are bit-identical by CoW. The
// clone journals its own changes from birth for Revert.
func (u *Unit) Clone(space *mem.AddressSpace, clock *hw.Clock) *Unit {
	u.mu.Lock()
	defer u.mu.Unlock()
	c := &Unit{space: space, clock: clock, used: u.used, pages: make(map[uint64]pte, len(u.pages)), muts: u.muts}
	for p, e := range u.pages {
		c.pages[p] = e
	}
	c.undo = &journal{used: u.used, muts: u.muts, pages: make(map[uint64]pageUndo)}
	return c
}

// Revert rewinds a cloned unit to its birth state by replaying the
// journal: every retagged page gets its birth entry back, and the key
// bitmap and Generation return to their birth values. The cost is the
// number of pages changed since birth (or the last Revert); reverting an
// unchanged unit, or one not made by Clone, does nothing.
func (u *Unit) Revert() {
	u.mu.Lock()
	defer u.mu.Unlock()
	j := u.undo
	if j == nil {
		return
	}
	for p, e := range j.pages {
		if e.had {
			u.pages[p] = e.prev
		} else {
			delete(u.pages, p)
		}
	}
	clear(j.pages)
	u.used, u.muts = j.used, j.muts
}

// Generation returns a counter bumped by every key-table mutation
// (alloc/free/mprotect); Revert rewinds it with the rest of the unit.
func (u *Unit) Generation() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.muts
}
