package mem

import (
	"errors"
	"runtime/debug"
	"testing"
)

// family builds a root whose data page is written before the clones
// (shared, cow after them) and whose second page stays demand-zero,
// then two forks: the first writes the shared page and a span it maps
// itself, the second writes nothing. The root writes its zero page
// after the clones. It returns the spaces and the arrays each one
// owns.
func family(t *testing.T) (root, f1, f2 *AddressSpace, owned map[*[PageSize]byte]string) {
	t.Helper()
	root = NewAddressSpace(0)
	s, err := root.Map("tpl.data", "tpl", KindData, 2*PageSize, PermR|PermW)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, root, s.Base, fill(0x5A, 8))
	f1, secs := root.CloneCoW()
	f2, _ = root.CloneCoW()
	mustWrite(t, root, s.Base+PageSize, fill(0x6B, 8))

	mustWrite(t, f1, secs[s].Base, fill(0x7C, 8))
	span, err := f1.Map("span", "p", KindHeap, PageSize, PermR|PermW)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f1, span.Base, fill(0x8D, 8))

	i := PageIndex(s.Base.PageNumber())
	owned = map[*[PageSize]byte]string{
		root.pages[i].arr:   "root's shared page",
		root.pages[i+1].arr: "root's private page",
		f1.pages[i].arr:     "fork's promoted page",
		f1.pages[PageIndex(span.Base.PageNumber())].arr: "fork's span page",
	}
	if f2.pages[i].arr != root.pages[i].arr || !f2.pages[i].cow || f2.pages[i+1].arr != &zeroPage {
		t.Fatal("untouched fork does not alias the root's pages")
	}
	return root, f1, f2, owned
}

// TestReleaseFamilyPoolsEachArrayOnce pins the ownership rule: the
// root puts every array of its table, shared or private; a fork puts
// only the arrays it promoted; nobody puts zeroPage; and each array
// goes back exactly once.
func TestReleaseFamilyPoolsEachArrayOnce(t *testing.T) {
	root, f1, f2, owned := family(t)
	put := map[*[PageSize]byte]int{}
	if err := releaseFamily(func(arr *[PageSize]byte) { put[arr]++ }, root, f1, f2); err != nil {
		t.Fatal(err)
	}
	if put[&zeroPage] != 0 {
		t.Fatal("zeroPage was pooled")
	}
	for arr, what := range owned {
		if put[arr] != 1 {
			t.Errorf("%s pooled %d times, want once", what, put[arr])
		}
	}
	if len(put) != len(owned) {
		t.Errorf("pooled %d arrays, want the family's %d", len(put), len(owned))
	}
}

// TestReleaseFamilyLeavesForkSharedPagesAlone: a fork cloned again
// shares its promoted pages with the grandchild, so neither side owns
// them outright and the release leaves them to the garbage collector.
func TestReleaseFamilyLeavesForkSharedPagesAlone(t *testing.T) {
	root, f1, f2, owned := family(t)
	g, _ := f1.CloneCoW()
	put := map[*[PageSize]byte]int{}
	if err := releaseFamily(func(arr *[PageSize]byte) { put[arr]++ }, root, f1, f2, g); err != nil {
		t.Fatal(err)
	}
	for arr, what := range owned {
		want := 0
		if what == "root's shared page" || what == "root's private page" {
			want = 1
		}
		if put[arr] != want {
			t.Errorf("%s pooled %d times, want %d", what, put[arr], want)
		}
	}
}

// TestReleaseFamilyEmptiesEverySpace: after a release no member holds
// a page, a section or a revert snapshot, so a stray access faults
// instead of reading bytes the pool hands to the next owner.
func TestReleaseFamilyEmptiesEverySpace(t *testing.T) {
	root, f1, f2, _ := family(t)
	f2.Checkpoint()
	addr := root.Sections()[0].Base
	if err := ReleaseFamily(root, f1, f2); err != nil {
		t.Fatal(err)
	}
	for _, as := range []*AddressSpace{root, f1, f2} {
		if err := as.ReadAt(addr, make([]byte, 8)); !errors.Is(err, ErrUnmapped) {
			t.Errorf("read after release: %v, want ErrUnmapped", err)
		}
		if err := as.WriteAt(addr, fill(1, 8)); !errors.Is(err, ErrUnmapped) {
			t.Errorf("write after release: %v, want ErrUnmapped", err)
		}
		if n := len(as.Sections()); n != 0 {
			t.Errorf("%d sections after release", n)
		}
		if as.Mapped(addr, 1) {
			t.Error("page still mapped after release")
		}
	}
	if err := f2.Revert(); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("revert after release: %v, want ErrNoSnapshot", err)
	}
}

// TestReleaseFamilyRefusesCloneRoot: a clone aliases its template's
// arrays, so releasing it as a root would pool arrays it does not own.
// The refusal leaves it untouched.
func TestReleaseFamilyRefusesCloneRoot(t *testing.T) {
	_, f1, f2, _ := family(t)
	addr := f1.Sections()[0].Base
	if err := ReleaseFamily(f1, f2); !errors.Is(err, ErrCloneRoot) {
		t.Fatalf("releasing a clone as root: %v, want ErrCloneRoot", err)
	}
	for _, as := range []*AddressSpace{f1, f2} {
		if !as.Mapped(addr, PageSize) {
			t.Fatal("refused release unmapped a space")
		}
	}
	if got := mustRead(t, f1, addr, 8); got[0] != 0x7C {
		t.Fatalf("refused release changed the fork's bytes: %x", got)
	}
}

// TestReleaseFamilyPagesFeedNextPromote: a promote after a release
// takes a pooled array, and one that replaces zeroPage zeroes the
// released owner's bytes first. The garbage collector is off so it
// cannot empty the pool in between.
func TestReleaseFamilyPagesFeedNextPromote(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	root, f1, f2, owned := family(t)
	if err := ReleaseFamily(root, f1, f2); err != nil {
		t.Fatal(err)
	}
	next := NewAddressSpace(0)
	s, err := next.Map("next", "p", KindHeap, PageSize, PermR|PermW)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, next, s.Base+8, fill(0x11, 8))
	if _, ok := owned[next.pages[PageIndex(s.Base.PageNumber())].arr]; !ok {
		t.Fatal("promote after a release allocated a new array")
	}
	want := append(make([]byte, 8), fill(0x11, 8)...)
	want = append(want, make([]byte, PageSize-16)...)
	if got := mustRead(t, next, s.Base, PageSize); string(got) != string(want) {
		t.Fatal("a recycled page carries its released owner's bytes")
	}
}
