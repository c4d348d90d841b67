package mem

import (
	"bytes"
	"testing"
)

// TestZeroPageFreshSectionReadsZeros: every page of a new section reads
// as zeros, in a fresh space and in a clone, before any write.
func TestZeroPageFreshSectionReadsZeros(t *testing.T) {
	as := NewAddressSpace(0)
	s, err := as.Map("fresh", "p", KindHeap, 3*PageSize, PermR|PermW)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, as, s.Base, 3*PageSize); !bytes.Equal(got, make([]byte, 3*PageSize)) {
		t.Fatal("a fresh section does not read as zeros")
	}
	c, _ := as.CloneCoW()
	cs, err := c.Map("clone.fresh", "p", KindHeap, PageSize, PermR|PermW)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, c, cs.Base, PageSize); !bytes.Equal(got, make([]byte, PageSize)) {
		t.Fatal("a clone's fresh section does not read as zeros")
	}
}

// TestZeroPageWritesStayPrivate: a write to one demand-zero page reaches
// neither another fresh section, of this space or another, nor either
// side of a clone taken before the write.
func TestZeroPageWritesStayPrivate(t *testing.T) {
	as := NewAddressSpace(0)
	a, _ := as.Map("a", "p", KindHeap, 2*PageSize, PermR|PermW)
	b, _ := as.Map("b", "p", KindHeap, 2*PageSize, PermR|PermW)
	c, secs := as.CloneCoW()
	zero := make([]byte, 2*PageSize)

	// One byte in a's second page: a's first page and all of b stay zero.
	mustWrite(t, as, a.Base+PageSize+7, []byte{0xAB})
	want := make([]byte, 2*PageSize)
	want[PageSize+7] = 0xAB
	if got := mustRead(t, as, a.Base, 2*PageSize); !bytes.Equal(got, want) {
		t.Fatal("the written section does not read its write over zeros")
	}
	if got := mustRead(t, as, b.Base, 2*PageSize); !bytes.Equal(got, zero) {
		t.Fatal("a write to one fresh section reached another")
	}
	if got := mustRead(t, c, secs[a].Base, 2*PageSize); !bytes.Equal(got, zero) {
		t.Fatal("a write to a fresh page reached a clone taken before it")
	}

	// The clone's own write reaches neither the original nor a new space.
	mustWrite(t, c, secs[b].Base, fill(0xCD, 2*PageSize))
	if got := mustRead(t, as, b.Base, 2*PageSize); !bytes.Equal(got, zero) {
		t.Fatal("a clone's write to a fresh page reached its template")
	}
	other := NewAddressSpace(0)
	o, _ := other.Map("o", "p", KindHeap, 2*PageSize, PermR|PermW)
	if got := mustRead(t, other, o.Base, 2*PageSize); !bytes.Equal(got, zero) {
		t.Fatal("a write to a fresh page reached another space's fresh section")
	}
}

// TestZeroPageNeverWritten: after clone, write and Revert cycles over
// fresh and template pages, and the randomised model test, the shared
// zero page still holds only zeros.
func TestZeroPageNeverWritten(t *testing.T) {
	tpl, ts := template(t)
	fresh, _ := tpl.Map("tpl.fresh", "tpl", KindHeap, 2*PageSize, PermR|PermW)
	for round := 0; round < 4; round++ {
		c, secs := tpl.CloneCoW()
		c.Checkpoint()
		s, err := c.Map("span", "p", KindHeap, 4*PageSize, PermR|PermW)
		if err != nil {
			t.Fatal(err)
		}
		mustWrite(t, c, s.Base+PageSize, fill(0xEE, 2*PageSize))
		mustWrite(t, c, secs[fresh].Base, fill(0xEF, PageSize+1))
		mustWrite(t, c, secs[ts].Base, []byte{0xF0})
		g, _ := c.CloneCoW()
		g.Checkpoint()
		mustWrite(t, g, s.Base, fill(0xF1, 4*PageSize))
		if err := c.Revert(); err != nil {
			t.Fatal(err)
		}
		if err := g.Revert(); err != nil {
			t.Fatal(err)
		}
	}
	runSpaceModel(t, 1, 300)
	if zeroPage != [PageSize]byte{} {
		t.Fatal("the shared zero page was written")
	}
}

// TestZeroPageMapAllocs: mapping 64 pages allocates as many objects as
// mapping one (the space, the section and the two slices), so no page
// array is allocated per page.
func TestZeroPageMapAllocs(t *testing.T) {
	mapAllocs := func(pages uint64) float64 {
		return testing.AllocsPerRun(50, func() {
			as := NewAddressSpace(0)
			if _, err := as.Map("span", "p", KindHeap, pages*PageSize, PermR|PermW); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := mapAllocs(1), mapAllocs(64)
	if many != one || many > 8 {
		t.Fatalf("NewAddressSpace+Map allocates %.1f objects for 1 page and %.1f for 64, want the same few", one, many)
	}
}
