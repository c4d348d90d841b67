package mpk

import (
	"maps"
	"testing"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/mem"
)

// taggedTemplate returns a unit with two allocated keys and a tagged
// data section, plus an untagged neighbour section — the shape of a
// captured template.
func taggedTemplate(t *testing.T) (u *Unit, space *mem.AddressSpace, tagged, untagged *mem.Section) {
	t.Helper()
	u, space, _ = newUnit(t)
	tagged, _ = space.Map("d", "p", mem.KindData, 2*mem.PageSize, mem.PermR|mem.PermW)
	untagged, _ = space.Map("h", "q", mem.KindHeap, 2*mem.PageSize, mem.PermR|mem.PermW)
	k1, _ := u.PkeyAlloc()
	if _, errno := u.PkeyAlloc(); errno != kernel.OK {
		t.Fatal(errno)
	}
	if errno := u.PkeyMprotect(tagged.Base, tagged.Size, mem.PermR|mem.PermW, k1); errno != kernel.OK {
		t.Fatal(errno)
	}
	return u, space, tagged, untagged
}

// birth captures what Revert must restore.
type birth struct {
	used  [hw.NumKeys]bool
	pages map[int]pte
	gen   int64
}

// birthOf reads the unit's key bitmap, generation and the set of its
// tracked tags by page index; untracked (zero) entries are left out, so
// a table that grew but holds the same tags compares equal.
func birthOf(u *Unit) birth {
	tags := make(map[int]pte)
	for i, e := range u.pages {
		if e.tracked {
			tags[i] = e
		}
	}
	return birth{used: u.used, pages: tags, gen: u.muts}
}

func (b birth) check(t *testing.T, what string, u *Unit) {
	t.Helper()
	got := birthOf(u)
	if got.used != b.used {
		t.Errorf("%s: key bitmap %v, want %v", what, got.used, b.used)
	}
	if !maps.Equal(got.pages, b.pages) {
		t.Errorf("%s: page tags %v, want %v", what, got.pages, b.pages)
	}
	if got.gen != b.gen {
		t.Errorf("%s: Generation %d, want %d", what, got.gen, b.gen)
	}
}

// TestRevertRestoresBirth: a clone that allocates, retags (over tagged
// and untracked pages, twice over one page) and frees keys reverts to
// exactly its birth tags, key bitmap and generation, and the template
// unit is never written. A second round after the revert reverts too.
func TestRevertRestoresBirth(t *testing.T) {
	tmpl, space, tagged, untagged := taggedTemplate(t)
	tmplBirth := birthOf(tmpl)
	c := tmpl.Clone(space)
	cloneBirth := birthOf(c)
	if cloneBirth.used != tmplBirth.used || !maps.Equal(cloneBirth.pages, tmplBirth.pages) || cloneBirth.gen != tmplBirth.gen {
		t.Fatal("clone does not start from the template's state")
	}
	for round := 0; round < 2; round++ {
		k, errno := c.PkeyAlloc()
		if errno != kernel.OK {
			t.Fatal(errno)
		}
		for _, sec := range []*mem.Section{tagged, untagged, untagged} {
			if errno := c.PkeyMprotect(sec.Base, sec.Size, mem.PermR, k); errno != kernel.OK {
				t.Fatal(errno)
			}
		}
		if errno := c.PkeyFree(1); errno != kernel.OK {
			t.Fatal(errno)
		}
		if c.Generation() == cloneBirth.gen {
			t.Fatal("mutations did not move the generation")
		}
		c.Revert()
		cloneBirth.check(t, "after Revert", c)
		tmplBirth.check(t, "template", tmpl)
	}
}

// TestRevertEmptyJournal: reverting a clone that changed nothing, and a
// unit that is not a clone at all, leaves both exactly as they were.
func TestRevertEmptyJournal(t *testing.T) {
	tmpl, space, _, _ := taggedTemplate(t)
	c := tmpl.Clone(space)
	want := birthOf(c)
	c.Revert()
	want.check(t, "clean clone", c)

	// A unit made by NewUnit keeps no journal: Revert is a no-op, not a
	// rewind to an empty unit.
	before := birthOf(tmpl)
	tmpl.Revert()
	before.check(t, "non-clone", tmpl)
}
