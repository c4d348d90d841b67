package mem

import (
	"bytes"
	"errors"
	"testing"
)

// fill returns n bytes of b.
func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// mustRead reads size bytes at addr or fails the test.
func mustRead(t *testing.T, as *AddressSpace, addr Addr, size int) []byte {
	t.Helper()
	out := make([]byte, size)
	if err := as.ReadAt(addr, out); err != nil {
		t.Fatalf("read %s: %v", addr, err)
	}
	return out
}

// mustWrite writes p at addr or fails the test.
func mustWrite(t *testing.T, as *AddressSpace, addr Addr, p []byte) {
	t.Helper()
	if err := as.WriteAt(addr, p); err != nil {
		t.Fatalf("write %s: %v", addr, err)
	}
}

// template maps one data page filled with 0x5A and returns the space
// and that section.
func template(t *testing.T) (*AddressSpace, *Section) {
	t.Helper()
	as := NewAddressSpace(0)
	s, err := as.Map("tpl.data", "tpl", KindData, PageSize, PermR|PermW)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, as, s.Base, fill(0x5A, PageSize))
	return as, s
}

// TestRevertedPagesDoNotLeakIntoNextClone: clone A dirties a promoted
// template page and a section it mapped after the clone, then reverts,
// releasing both pages for reuse. Clone B of the same template must see
// a zeroed page in its own new section and the template's bytes around
// its write to the promoted page, whichever recycled arrays back them.
func TestRevertedPagesDoNotLeakIntoNextClone(t *testing.T) {
	tpl, ts := template(t)
	for round := 0; round < 4; round++ {
		a, secs := tpl.CloneCoW()
		a.Checkpoint()
		mustWrite(t, a, secs[ts].Base, fill(0xAA, PageSize))
		as, err := a.Map("a.heap", "a", KindHeap, 4*PageSize, PermR|PermW)
		if err != nil {
			t.Fatal(err)
		}
		mustWrite(t, a, as.Base, fill(0xBB, 4*PageSize))
		if err := a.Revert(); err != nil {
			t.Fatal(err)
		}
		if got := mustRead(t, a, secs[ts].Base, PageSize); !bytes.Equal(got, fill(0x5A, PageSize)) {
			t.Fatalf("round %d: reverted clone does not read the template page", round)
		}

		b, secs := tpl.CloneCoW()
		b.Checkpoint()
		bs, err := b.Map("b.heap", "b", KindHeap, 4*PageSize, PermR|PermW)
		if err != nil {
			t.Fatal(err)
		}
		if bs.Base != as.Base {
			t.Fatalf("round %d: b mapped at %s, a at %s", round, bs.Base, as.Base)
		}
		if got := mustRead(t, b, bs.Base, 4*PageSize); !bytes.Equal(got, make([]byte, 4*PageSize)) {
			t.Fatalf("round %d: a fresh section of clone b is not zeroed", round)
		}
		mustWrite(t, b, secs[ts].Base, []byte{0xCC})
		want := fill(0x5A, PageSize)
		want[0] = 0xCC
		if got := mustRead(t, b, secs[ts].Base, PageSize); !bytes.Equal(got, want) {
			t.Fatalf("round %d: clone b's promoted page is not the template's bytes plus its write", round)
		}
		if err := b.Revert(); err != nil {
			t.Fatal(err)
		}
	}
	if got := mustRead(t, tpl, ts.Base, PageSize); !bytes.Equal(got, fill(0x5A, PageSize)) {
		t.Fatal("a clone's write reached the template")
	}
}

// TestGrandchildKeepsPagesAcrossRevert: a grandchild cloned from A
// shares A's private pages. When A reverts, those pages are still
// marked copy-on-write in A and must not be recycled: other spaces'
// Maps zero the pages they take, and the grandchild's bytes would go
// with them.
func TestGrandchildKeepsPagesAcrossRevert(t *testing.T) {
	tpl, ts := template(t)
	a, secs := tpl.CloneCoW()
	a.Checkpoint()
	mustWrite(t, a, secs[ts].Base, fill(0x11, PageSize)) // promoted in A
	kept, err := a.Map("a.kept", "a", KindHeap, 2*PageSize, PermR|PermW)
	if err != nil {
		t.Fatal(err)
	}
	over, err := a.Map("a.over", "a", KindHeap, 2*PageSize, PermR|PermW)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, a, kept.Base, fill(0x22, 2*PageSize))
	mustWrite(t, a, over.Base, fill(0x33, 2*PageSize))

	g, _ := a.CloneCoW()
	g.Checkpoint()
	// A overwrites half of what it shares with g and leaves the rest.
	mustWrite(t, a, over.Base, fill(0x44, 2*PageSize))
	if err := a.Revert(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		other := NewAddressSpace(0)
		s, err := other.Map("churn", "p", KindHeap, 8*PageSize, PermR|PermW)
		if err != nil {
			t.Fatal(err)
		}
		mustWrite(t, other, s.Base, fill(0xEE, 8*PageSize))
	}

	check := func(when string) {
		t.Helper()
		for _, c := range []struct {
			name string
			addr Addr
			want []byte
		}{
			{"promoted page", secs[ts].Base, fill(0x11, PageSize)},
			{"kept section", kept.Base, fill(0x22, 2*PageSize)},
			{"overwritten section", over.Base, fill(0x33, 2*PageSize)},
		} {
			if got := mustRead(t, g, c.addr, len(c.want)); !bytes.Equal(got, c.want) {
				t.Fatalf("%s: grandchild's %s changed", when, c.name)
			}
		}
	}
	check("after A reverts")
	mustWrite(t, g, kept.Base, fill(0x55, PageSize))
	if err := g.Revert(); err != nil {
		t.Fatal(err)
	}
	check("after the grandchild reverts")
}

// TestRevertCycleReusesPages pins the warm recycle: once one cycle has
// stocked the page pool, mapping four pages, writing them and a shared
// template page, and reverting allocates nothing — no page array, and
// no Section, since Map hands back the one Revert cut off.
func TestRevertCycleReusesPages(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	tpl, ts := template(t)
	c, secs := tpl.CloneCoW()
	c.Checkpoint()
	data := fill(0x77, 4*PageSize)
	cycle := func() {
		s, err := c.Map("span", "p", KindHeap, 4*PageSize, PermR|PermW)
		if err != nil {
			t.Fatal(err)
		}
		mustWrite(t, c, s.Base, data)
		mustWrite(t, c, secs[ts].Base, data[:8])
		if err := c.Revert(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // stock the pool and size the bookkeeping maps
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("Map+write+Revert allocates %.1f objects/op, want 0", allocs)
	}
}

// TestMapAfterRevertAllocs pins the section a recycled instance's
// tenant maps: a Map at the base and size of a section Revert cut off
// returns that *Section, with the new name, owner and rights, and
// allocates nothing. A Map of another size at that base gets a new
// Section.
func TestMapAfterRevertAllocs(t *testing.T) {
	tpl, _ := template(t)
	c, _ := tpl.CloneCoW()
	c.Checkpoint()
	first, err := c.Map("span-1", "p", KindHeap, 2*PageSize, PermR|PermW)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Map("span-2", "p", KindHeap, 4*PageSize, PermR|PermW)
	if err != nil {
		t.Fatal(err)
	}
	c.SetOwner(first, "q")
	remap := func() {
		if err := c.Revert(); err != nil {
			t.Fatal(err)
		}
		s1, err := c.Map("span-1", "p", KindHeap, 2*PageSize, PermR|PermW)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := c.Map("span-2", "p", KindHeap, 4*PageSize, PermR)
		if err != nil {
			t.Fatal(err)
		}
		if s1 != first || s2 != second {
			t.Fatal("Map after Revert did not hand back the sections Revert cut off")
		}
	}
	remap()
	if first.Pkg != "p" || second.Perm != PermR || c.SectionAt(second.Base) != second {
		t.Fatalf("a reclaimed section keeps its old fields: %v, %v", first, second)
	}
	if allocs := testing.AllocsPerRun(100, remap); allocs != 0 {
		t.Fatalf("Revert+Map allocates %.1f objects/op, want 0", allocs)
	}
	if err := c.Revert(); err != nil {
		t.Fatal(err)
	}
	other, err := c.Map("span-1", "p", KindHeap, 3*PageSize, PermR|PermW)
	if err != nil {
		t.Fatal(err)
	}
	if other == first {
		t.Fatal("a Map of another size reclaimed the cut-off section")
	}
}

// TestMappedAcrossHole: a range is mapped only if every page is; an
// unmapped section in the middle makes a range spanning it unmapped.
func TestMappedAcrossHole(t *testing.T) {
	as := NewAddressSpace(0)
	a, _ := as.Map("a", "p", KindData, PageSize, PermR)
	b, _ := as.Map("b", "p", KindData, PageSize, PermR)
	c, _ := as.Map("c", "p", KindData, PageSize, PermR)
	span := uint64(c.End() - a.Base)
	if !as.Mapped(a.Base, span) {
		t.Fatal("three adjacent sections not mapped")
	}
	if err := as.Unmap(b); err != nil {
		t.Fatal(err)
	}
	if as.Mapped(a.Base, span) {
		t.Fatal("range across the hole reported mapped")
	}
	if !as.Mapped(a.Base, a.Size) || !as.Mapped(c.Base, c.Size) {
		t.Fatal("sections beside the hole reported unmapped")
	}
	if !as.Mapped(b.Base, 0) {
		t.Fatal("an empty range is always mapped")
	}
}

// TestRevertUndoesSetOwner: an owner transfer on a clone is part of the
// state Revert rewinds; the template's section never changes owner.
func TestRevertUndoesSetOwner(t *testing.T) {
	tpl := NewAddressSpace(0)
	ts, _ := tpl.Map("span", "a", KindHeap, PageSize, PermR|PermW)
	c, secs := tpl.CloneCoW()
	c.Checkpoint()
	c.SetOwner(secs[ts], "b")
	if secs[ts].Pkg != "b" || ts.Pkg != "a" {
		t.Fatalf("after SetOwner: clone %q, template %q", secs[ts].Pkg, ts.Pkg)
	}
	if err := c.Revert(); err != nil {
		t.Fatal(err)
	}
	if secs[ts].Pkg != "a" {
		t.Fatalf("after Revert the clone's section is owned by %q, want a", secs[ts].Pkg)
	}
}

// TestRevertWithoutSnapshot: only a checkpointed space can revert; a
// clone takes no snapshot until Checkpoint.
func TestRevertWithoutSnapshot(t *testing.T) {
	as, _ := template(t)
	if err := as.Revert(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Revert on a non-clone: %v", err)
	}
	c, _ := as.CloneCoW()
	if err := c.Revert(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Revert on a clone without Checkpoint: %v", err)
	}
}

// TestRevertRestoresUnmappedSection: a template section the clone
// unmapped comes back, at its address and with the template's bytes.
func TestRevertRestoresUnmappedSection(t *testing.T) {
	tpl, ts := template(t)
	c, secs := tpl.CloneCoW()
	c.Checkpoint()
	cs := secs[ts]
	if err := c.Unmap(cs); err != nil {
		t.Fatal(err)
	}
	if c.Mapped(cs.Base, 1) {
		t.Fatal("unmapped section still mapped in the clone")
	}
	if !tpl.Mapped(ts.Base, ts.Size) {
		t.Fatal("a clone's Unmap reached the template")
	}
	if err := c.Revert(); err != nil {
		t.Fatal(err)
	}
	if c.SectionAt(cs.Base) != cs {
		t.Fatal("Revert did not restore the section")
	}
	if got := mustRead(t, c, cs.Base, PageSize); !bytes.Equal(got, fill(0x5A, PageSize)) {
		t.Fatal("restored section does not hold the template's bytes")
	}
}
