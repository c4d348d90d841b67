package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestAlignUp(t *testing.T) {
	cases := map[uint64]uint64{
		0: 0, 1: PageSize, PageSize: PageSize,
		PageSize + 1: 2 * PageSize, 3*PageSize - 1: 3 * PageSize,
	}
	for in, want := range cases {
		if got := AlignUp(in); got != want {
			t.Errorf("AlignUp(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(0x401234)
	if a.PageNumber() != 0x401 {
		t.Errorf("PageNumber = %#x", a.PageNumber())
	}
	if a.PageOffset() != 0x234 {
		t.Errorf("PageOffset = %#x", a.PageOffset())
	}
	if a.PageAligned() {
		t.Error("0x401234 reported aligned")
	}
	if !Addr(0x402000).PageAligned() {
		t.Error("0x402000 reported unaligned")
	}
}

func TestPageRange(t *testing.T) {
	const top = 1<<64 - 1
	for _, c := range []struct {
		addr        Addr
		size        uint64
		first, last uint64
		ok          bool
	}{
		{0x401234, 1, 0x401, 0x401, true},
		{0x401000, PageSize, 0x401, 0x401, true},
		{0x401fff, 2, 0x401, 0x402, true},
		{top - PageSize + 1, PageSize, top >> PageShift, top >> PageShift, true}, // ends at 2^64-1
		{0x401000, 0, 0, 0, false},
		{0x401000, top - PageSize + 1, 0, 0, false}, // wraps to one page below addr
		{top, 2, 0, 0, false},
	} {
		first, last, ok := PageRange(c.addr, c.size)
		if first != c.first || last != c.last || ok != c.ok {
			t.Errorf("PageRange(%s, %#x) = %#x, %#x, %v; want %#x, %#x, %v",
				c.addr, c.size, first, last, ok, c.first, c.last, c.ok)
		}
	}
}

func TestPermString(t *testing.T) {
	if (PermR | PermW | PermX).String() != "rwx" {
		t.Error("rwx")
	}
	if (PermR | PermX).String() != "r-x" {
		t.Error("r-x")
	}
	if PermNone.String() != "---" {
		t.Error("---")
	}
	if !(PermR | PermW).Has(PermR) || (PermR).Has(PermW) {
		t.Error("Has broken")
	}
}

func TestSectionKindDefaults(t *testing.T) {
	if KindText.DefaultPerm() != PermR|PermX {
		t.Error("text perm")
	}
	if KindROData.DefaultPerm() != PermR {
		t.Error("rodata perm")
	}
	if KindData.DefaultPerm() != PermR|PermW {
		t.Error("data perm")
	}
	if KindHeap.DefaultPerm() != PermR|PermW {
		t.Error("heap perm")
	}
}

func TestMapAndRoundTrip(t *testing.T) {
	as := NewAddressSpace(0)
	s, err := as.Map("a.data", "a", KindData, 100, PermR|PermW)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size != PageSize {
		t.Fatalf("size %d not rounded to page", s.Size)
	}
	if !s.Base.PageAligned() {
		t.Fatalf("base %s unaligned", s.Base)
	}
	in := []byte("hello enclosure")
	if err := as.WriteAt(s.Base+5, in); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(in))
	if err := as.ReadAt(s.Base+5, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatalf("round trip: %q != %q", out, in)
	}
}

func TestCrossPageCopy(t *testing.T) {
	as := NewAddressSpace(0)
	s, err := as.Map("big", "a", KindData, 3*PageSize, PermR|PermW)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*PageSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	addr := s.Base + PageSize/2 // straddles two page boundaries
	if err := as.WriteAt(addr, data); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(data))
	if err := as.ReadAt(addr, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, out) {
		t.Fatal("cross-page round trip mismatch")
	}
}

func TestUnmappedAccessFails(t *testing.T) {
	as := NewAddressSpace(0)
	var b [1]byte
	if err := as.ReadAt(0x1000, b[:]); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("read unmapped: %v", err)
	}
	s, _ := as.Map("x", "a", KindData, PageSize, PermR|PermW)
	// Read runs off the end of the last mapped page.
	buf := make([]byte, PageSize+1)
	if err := as.ReadAt(s.Base, buf); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("overrun read: %v", err)
	}
}

func TestUnmap(t *testing.T) {
	as := NewAddressSpace(0)
	s, _ := as.Map("x", "a", KindData, 2*PageSize, PermR|PermW)
	if err := as.Unmap(s); err != nil {
		t.Fatal(err)
	}
	var b [4]byte
	if err := as.ReadAt(s.Base+PageSize, b[:]); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("read after unmap: %v", err)
	}
	if err := as.WriteAt(s.Base, b[:]); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("write after unmap: %v", err)
	}
	if err := as.Unmap(s); !errors.Is(err, ErrDoubleUnmap) {
		t.Fatalf("double unmap: %v", err)
	}
	if as.Mapped(s.Base, 1) {
		t.Fatal("pages survive unmap")
	}
	if as.SectionAt(s.Base) != nil {
		t.Fatal("section lookup survives unmap")
	}
}

func TestSectionAt(t *testing.T) {
	as := NewAddressSpace(0)
	a, _ := as.Map("a", "p", KindData, PageSize, PermR)
	b, _ := as.Map("b", "q", KindData, 2*PageSize, PermR)
	if got := as.SectionAt(a.Base + 10); got != a {
		t.Fatalf("SectionAt in a: %v", got)
	}
	if got := as.SectionAt(b.End() - 1); got != b {
		t.Fatalf("SectionAt end of b: %v", got)
	}
	if got := as.SectionAt(b.End()); got != nil {
		t.Fatalf("SectionAt past b: %v", got)
	}
}

func TestZeroSizeAndExhaustion(t *testing.T) {
	as := NewAddressSpace(0)
	if _, err := as.Map("z", "p", KindData, 0, PermR); !errors.Is(err, ErrZeroSize) {
		t.Fatalf("zero size: %v", err)
	}
	small := NewAddressSpace(2 * PageSize)
	if _, err := small.Map("a", "p", KindData, PageSize, PermR); err != nil {
		t.Fatal(err)
	}
	if _, err := small.Map("b", "p", KindData, 2*PageSize, PermR); !errors.Is(err, ErrExhausted) {
		t.Fatalf("exhaustion: %v", err)
	}
}

func TestLoadStore64(t *testing.T) {
	as := NewAddressSpace(0)
	s, _ := as.Map("x", "a", KindData, PageSize, PermR|PermW)
	const v = 0xDEADBEEFCAFEF00D
	if err := as.Store64(s.Base+8, v); err != nil {
		t.Fatal(err)
	}
	got, err := as.Load64(s.Base + 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("Load64 = %#x", got)
	}
	// Little-endian layout.
	b, _ := as.Load8(s.Base + 8)
	if b != 0x0D {
		t.Fatalf("first byte %#x, want 0x0d", b)
	}
}

// TestLoad64Property: Store64 then Load64 round-trips at arbitrary
// in-section offsets, including page-straddling ones.
func TestLoad64Property(t *testing.T) {
	as := NewAddressSpace(0)
	s, _ := as.Map("x", "a", KindData, 4*PageSize, PermR|PermW)
	f := func(off uint16, v uint64) bool {
		addr := s.Base + Addr(uint64(off)%(4*PageSize-8))
		if err := as.Store64(addr, v); err != nil {
			return false
		}
		got, err := as.Load64(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestSectionsDisjointProperty: the bump allocator never produces
// overlapping sections, whatever the size sequence.
func TestSectionsDisjointProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		as := NewAddressSpace(1 << 30)
		for i, sz := range sizes {
			if i >= 64 {
				break
			}
			if _, err := as.Map("s", "p", KindData, uint64(sz)+1, PermR); err != nil {
				return false
			}
		}
		secs := as.Sections()
		for i := 1; i < len(secs); i++ {
			if secs[i].Base < secs[i-1].End() {
				return false
			}
			if !secs[i].Base.PageAligned() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSetOwnerAndUsed(t *testing.T) {
	as := NewAddressSpace(0)
	s, _ := as.Map("span", "a", KindHeap, PageSize, PermR|PermW)
	as.SetOwner(s, "b")
	if s.Pkg != "b" {
		t.Fatalf("owner %q", s.Pkg)
	}
	if used := as.next - baseVA; used != PageSize {
		t.Fatalf("used %d", used)
	}
}

func TestSectionContains(t *testing.T) {
	s := &Section{Base: 0x400000, Size: PageSize}
	if !s.Contains(0x400000, PageSize) {
		t.Error("full-range contains failed")
	}
	if s.Contains(0x400000, PageSize+1) {
		t.Error("oversize contains succeeded")
	}
	if s.Contains(0x3fffff, 1) {
		t.Error("before-start contains succeeded")
	}
	if !s.Contains(0x400fff, 1) {
		t.Error("last-byte contains failed")
	}
}
