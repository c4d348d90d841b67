package mpk

import (
	"slices"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/mem"
)

// journal records what a cloned unit changed since birth, so Revert
// costs O(pages the tenant retagged) instead of a full tag-table copy —
// the tag-side counterpart of mem.AddressSpace's dirty list.
type journal struct {
	used  [hw.NumKeys]bool
	muts  int64
	pages []pageUndo // first change of each page since birth, in order
	seen  []bool     // by page index: the page has an entry in pages
}

// pageUndo is a page's entry before its first change since birth.
type pageUndo struct {
	idx  int
	prev pte
}

// notePage saves the entry at page index i unless an earlier change
// since birth already did.
func (j *journal) notePage(pages []pte, i int) {
	if i < len(j.seen) && j.seen[i] {
		return
	}
	if n := i + 1 - len(j.seen); n > 0 {
		j.seen = append(j.seen, make([]bool, n)...)
	}
	j.seen[i] = true
	j.pages = append(j.pages, pageUndo{idx: i, prev: pages[i]})
}

// Clone returns an independent MPK unit over a cloned address space:
// the key-allocation bitmap and every page's key tag are copied by
// value. Key numbers are preserved, so environments' published PKRU
// values remain valid in the clone, and the clone needs no fresh
// WRPKRU gadget scan — its text pages are bit-identical by CoW. The
// clone journals its own changes from birth for Revert.
func (u *Unit) Clone(space *mem.AddressSpace) *Unit {
	return &Unit{space: space, used: u.used, pages: slices.Clone(u.pages), muts: u.muts,
		undo: &journal{used: u.used, muts: u.muts}}
}

// Revert rewinds a cloned unit to its birth state by replaying the
// journal: every retagged page gets its birth entry back, and the key
// bitmap and Generation return to their birth values. The cost is the
// number of pages changed since birth (or the last Revert); reverting an
// unchanged unit, or one not made by Clone, does nothing.
func (u *Unit) Revert() {
	j := u.undo
	if j == nil {
		return
	}
	for _, e := range j.pages {
		u.pages[e.idx] = e.prev
		j.seen[e.idx] = false
	}
	j.pages = j.pages[:0]
	u.used, u.muts = j.used, j.muts
}

// Generation returns a counter bumped by every key-table mutation
// (alloc/free/mprotect); Revert rewinds it with the rest of the unit.
func (u *Unit) Generation() int64 {
	return u.muts
}
