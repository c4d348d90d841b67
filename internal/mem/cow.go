package mem

import (
	"errors"
	"slices"
	"sync"
)

// This file implements copy-on-write cloning of an address space — the
// storage half of warm-enclosure snapshots. CloneCoW aliases every
// mapped page between the template and the clone; the first write
// on either side promotes (privately copies) just the touched pages, so
// a clone costs one copy of the page-pointer slice instead of
// re-materialising and re-filling the image. A space that will be
// recycled additionally keeps a revert snapshot (Checkpoint): the page
// slice and section list it was born with. Revert walks only the dirty
// list and the sections touched since birth, which makes recycling a
// pooled instance O(pages actually written by the request), not
// O(image).

// zeroPage backs every page Map creates until its first write. Those
// entries are always marked cow, so every write promotes them first and
// Revert never pools them: nothing writes this array.
var zeroPage [PageSize]byte

// pagePool recycles the page arrays Revert and ReleaseFamily release
// into later promotions, process-wide so an idle pooled instance holds
// no spare pages. Page arrays never leave this package, so a released
// page has no other owner. It has no New: a page taken from it still
// holds its last owner's bytes, so only such a page needs zeroing when
// it replaces zeroPage, while a freshly allocated one is zero.
var pagePool sync.Pool

// getPage returns a page array from pagePool, or a new zero one when
// the pool is empty; reused reports which.
func getPage() (arr *[PageSize]byte, reused bool) {
	if arr, ok := pagePool.Get().(*[PageSize]byte); ok {
		return arr, true
	}
	return new([PageSize]byte), false
}

// ErrCloneRoot is returned by ReleaseFamily for a root that is itself
// a clone: such a space aliases arrays its own template owns.
var ErrCloneRoot = errors.New("mem: release: root space is a clone")

// ErrNoSnapshot is returned by Revert on a space that has no
// Checkpoint.
var ErrNoSnapshot = errors.New("mem: address space has no revert snapshot")

// cowSnapshot is the birth state of a checkpointed space, and what changed
// since: enough to rewind every mutation (writes, maps, unmaps, owner
// transfers) in O(dirty).
type cowSnapshot struct {
	pages []page     // every mapped one marked cow
	secs  []*Section // the clone's section pointers at birth, in order
	next  Addr

	// dirty lists the page indexes promoted, mapped or unmapped since
	// birth. An index may appear more than once (a page promoted again
	// after a later CloneCoW shared it); resetting it twice is harmless.
	dirty []int
	// owners holds each owner transfer of a birth section with the owner
	// it replaced, and unmapped is set once a birth section is unmapped;
	// sections mapped since birth lie past next and need neither.
	owners   []ownerUndo
	unmapped bool

	// spare holds, in address order, the sections mapped since birth
	// that the last Revert cut off, and reclaimed how many of them Map
	// has passed since. A tenant of a recycled instance maps what the
	// previous one did, at the same addresses, so Map hands each one
	// back instead of allocating a new Section.
	spare     []*Section
	reclaimed int
}

type ownerUndo struct {
	s   *Section
	pkg string
}

// CloneCoW returns a copy-on-write clone of the address space and the
// section identity map (template section -> clone section). The clone
// sees bit-identical contents at identical addresses; neither side can
// observe the other's subsequent writes. Both sides pay promote-on-first-
// write for pages that were shared at clone time. A space whose mapped
// pages are all shared already — a clone no write has reached, such as a
// snapshot template's frozen space — is only read, so several owners
// may clone it at once.
func (as *AddressSpace) CloneCoW() (*AddressSpace, map[*Section]*Section) {
	as.share()
	clone := &AddressSpace{
		pages: slices.Clone(as.pages), // alias: promote-on-write splits them
		next:  as.next,
		limit: as.limit,
		clone: true,
	}

	secMap := make(map[*Section]*Section, len(as.sections))
	clone.sections = make([]*Section, len(as.sections))
	for i, s := range as.sections {
		ns := *s
		clone.sections[i], secMap[s] = &ns, &ns
	}
	return clone, secMap
}

// share marks every mapped page copy-on-write, so the next write on any
// side promotes it instead of changing the array in place.
func (as *AddressSpace) share() {
	for i, p := range as.pages {
		if p.arr != nil && !p.cow {
			as.pages[i].cow = true
		}
	}
}

// Checkpoint records the space's current state as the birth state
// Revert rewinds to, replacing any earlier checkpoint. Only a space
// that will be recycled needs one — a warm instance's clone, not a
// template's frozen space or a one-shot fork — since the snapshot costs
// a copy of the page slice and every later page-table change appends
// to its dirty list.
func (as *AddressSpace) Checkpoint() {
	as.share()
	as.snap = &cowSnapshot{
		pages: slices.Clone(as.pages),
		secs:  slices.Clone(as.sections),
		next:  as.next,
	}
}

// promote privately copies every still-shared page of [addr,
// addr+size) so a subsequent write cannot leak into the other side of a
// CoW clone. A demand-zero page gets a zeroed private page instead of a
// copy of zeroPage.
func (as *AddressSpace) promote(addr Addr, size uint64) {
	first, last, ok := PageRange(addr, size)
	for i := PageIndex(first); ok && i <= PageIndex(last); i++ {
		p := as.page(i)
		if !p.cow {
			continue
		}
		priv, reused := getPage()
		if p.arr != &zeroPage {
			*priv = *p.arr
		} else if reused {
			*priv = [PageSize]byte{}
		}
		as.pages[i] = page{arr: priv}
		as.markPagesDirty(i, i)
	}
}

// reclaim returns the section the last Revert cut off at the bump
// cursor, if it has the given size, or nil.
func (as *AddressSpace) reclaim(size uint64) *Section {
	snap := as.snap
	if snap == nil {
		return nil
	}
	for ; snap.reclaimed < len(snap.spare); snap.reclaimed++ {
		s := snap.spare[snap.reclaimed]
		if s.Base > as.next {
			return nil
		}
		if s.Base == as.next {
			if s.Size != size {
				return nil
			}
			snap.reclaimed++
			return s
		}
	}
	return nil
}

// markPagesDirty records post-clone page-table mutations (map, unmap,
// promotion) of indexes [first, last] so Revert knows to reconcile them.
func (as *AddressSpace) markPagesDirty(first, last int) {
	if as.snap == nil {
		return
	}
	for i := first; i <= last; i++ {
		as.snap.dirty = append(as.snap.dirty, i)
	}
}

// Revert rewinds a checkpointed address space to its birth snapshot: dirty
// pages are re-aliased to the template-shared arrays (or dropped if they
// were mapped after the clone), the page table is cut back to its birth
// length, the section list and the owners SetOwner changed are
// restored, and the bump allocator rewinds. The *Sections mapped since
// birth are kept for Map to hand back at the same base and size, so a
// pointer to one taken before the Revert names whatever the next tenant
// maps there. The cost is proportional to the dirty set, which is what
// makes pooled recycling an order of magnitude cheaper than a fresh
// clone. Dirty pages the clone owns privately go back to pagePool; a
// page still marked cow is zeroPage, or shared with a later clone of
// this one and left to it.
func (as *AddressSpace) Revert() error {
	snap := as.snap
	if snap == nil {
		return ErrNoSnapshot
	}
	for _, i := range snap.dirty {
		if p := as.pages[i]; p.arr != nil && !p.cow {
			pagePool.Put(p.arr)
		}
		if i < len(snap.pages) {
			as.pages[i] = snap.pages[i]
		} else {
			as.pages[i] = page{}
		}
	}
	snap.dirty = snap.dirty[:0]
	as.pages = as.pages[:len(snap.pages)] // every page past it was dirty, so nil

	born := len(as.sections) // the sections mapped since birth lie past snap.next
	for born > 0 && as.sections[born-1].Base >= snap.next {
		born--
	}
	snap.spare = append(snap.spare[:0], as.sections[born:]...)
	snap.reclaimed = 0
	if snap.unmapped {
		as.sections = append(as.sections[:0], snap.secs...)
		snap.unmapped = false
	} else { // the birth sections are still the list's prefix
		as.sections = as.sections[:len(snap.secs)]
	}
	for i := len(snap.owners) - 1; i >= 0; i-- { // the first holds the birth owner
		snap.owners[i].s.Pkg = snap.owners[i].pkg
	}
	snap.owners = snap.owners[:0]
	as.next = snap.next
	return nil
}

// ReleaseFamily gives every page array of a family of spaces back to
// pagePool, each once, and empties every member. The family is a root
// space, built by NewAddressSpace and never itself a clone, and the
// CloneCoW forks of it listed after it. Ownership follows from how
// CloneCoW and promote hand arrays out: the root owns every array in
// its table but zeroPage — a cow entry is one its forks still alias —
// and a fork owns exactly its entries with cow unset, the arrays it
// promoted. An array shared only between forks, as when one fork was
// cloned again, is left to the garbage collector.
//
// Only the owner of the whole family may call it, once no member is
// used again and every other space cloned from a member is gone too:
// such a clone would read the next owner's bytes through an array it
// still aliases. A released space holds no page and no section, so an
// access to it fails with ErrUnmapped; it keeps no revert snapshot.
func ReleaseFamily(root *AddressSpace, forks ...*AddressSpace) error {
	return releaseFamily(putPage, root, forks...)
}

// putPage hands a page array to pagePool.
func putPage(arr *[PageSize]byte) { pagePool.Put(arr) }

// releaseFamily is ReleaseFamily with the pool's Put as a parameter, so
// a test can see which arrays go back.
func releaseFamily(put func(*[PageSize]byte), root *AddressSpace, forks ...*AddressSpace) error {
	if root.clone {
		return ErrCloneRoot
	}
	root.release(put, true)
	for _, f := range forks {
		f.release(put, false)
	}
	return nil
}

// release puts the arrays the space owns — all but zeroPage for a root,
// the private ones for a fork — and leaves it as empty as a new space
// of its capacity.
func (as *AddressSpace) release(put func(*[PageSize]byte), root bool) {
	for _, p := range as.pages {
		if p.arr != nil && p.arr != &zeroPage && (root || !p.cow) {
			put(p.arr)
		}
	}
	*as = AddressSpace{next: baseVA, limit: as.limit, clone: as.clone}
}
