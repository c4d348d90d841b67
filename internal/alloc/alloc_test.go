package alloc

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/litterbox-project/enclosure/internal/mem"
)

// testHeap builds a heap over a fresh address space with a counting
// transfer hook.
func testHeap(t *testing.T) (*Heap, *mem.AddressSpace, *[]string) {
	t.Helper()
	space := mem.NewAddressSpace(0)
	var log []string
	n := 0
	mmap := func(size uint64) (*mem.Section, error) {
		n++
		return space.Map("span", "pool", mem.KindHeap, size, mem.PermR|mem.PermW)
	}
	transfer := func(s *mem.Section, toPkg string) error {
		log = append(log, toPkg)
		space.SetOwner(s, toPkg)
		return nil
	}
	return NewHeap(mmap, transfer, "pool"), space, &log
}

func TestAllocBasics(t *testing.T) {
	h, _, _ := testHeap(t)
	a := h.Arena("img")
	addr, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if h.OwnerOf(addr) != "img" {
		t.Fatalf("owner = %q", h.OwnerOf(addr))
	}
	if _, err := a.Alloc(0); !errors.Is(err, ErrSizeZero) {
		t.Fatalf("zero alloc: %v", err)
	}
	if a.Live() != 1 {
		t.Fatalf("live = %d", a.Live())
	}
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	if a.Live() != 0 {
		t.Fatalf("live after free = %d", a.Live())
	}
}

func TestSlotAlignmentAndDistinctness(t *testing.T) {
	h, _, _ := testHeap(t)
	a := h.Arena("p")
	seen := map[mem.Addr]bool{}
	for i := 0; i < 100; i++ {
		addr, err := a.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if seen[addr] {
			t.Fatalf("address %s handed out twice", addr)
		}
		seen[addr] = true
		if uint64(addr)%64 != 0 {
			t.Fatalf("allocation %s not slot aligned", addr)
		}
	}
}

func TestSizeClassBoundaries(t *testing.T) {
	h, _, _ := testHeap(t)
	a := h.Arena("p")
	classes := sizeClasses
	// Allocating exactly a class size and one past it must both work
	// and be freeable.
	for _, c := range classes {
		for _, n := range []uint64{c, c - 1} {
			addr, err := a.Alloc(n)
			if err != nil {
				t.Fatalf("Alloc(%d): %v", n, err)
			}
			if err := a.Free(addr); err != nil {
				t.Fatalf("Free(%d): %v", n, err)
			}
		}
	}
}

func TestLargeAllocation(t *testing.T) {
	h, _, log := testHeap(t)
	a := h.Arena("p")
	addr, err := a.Alloc(MaxSmall + 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.OwnerOf(addr) != "p" {
		t.Fatal("large alloc owner")
	}
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	// Large spans transfer in and out once each.
	if len(*log) != 2 || (*log)[0] != "p" || (*log)[1] != "pool" {
		t.Fatalf("transfer log = %v", *log)
	}
}

func TestFreeErrors(t *testing.T) {
	h, _, _ := testHeap(t)
	a := h.Arena("p")
	b := h.Arena("q")
	addr, _ := a.Alloc(32)
	if err := b.Free(addr); !errors.Is(err, ErrWrongArena) {
		t.Fatalf("cross-arena free: %v", err)
	}
	if err := a.Free(addr + 1); err == nil {
		t.Fatal("interior-pointer free succeeded")
	}
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(mem.Addr(0xdead000)); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("unknown free: %v", err)
	}
}

func TestDoubleFree(t *testing.T) {
	h, _, _ := testHeap(t)
	a := h.Arena("p")
	// Two live objects keep the span resident so the second Free of x
	// is seen by the slot check rather than the pool.
	x, _ := a.Alloc(32)
	y, _ := a.Alloc(32)
	if err := a.Free(x); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(x); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free: %v", err)
	}
	_ = y
}

func TestSpanPoolingAcrossPackages(t *testing.T) {
	h, _, log := testHeap(t)
	a := h.Arena("a")
	addr, _ := a.Alloc(2048)
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	// The drained span went to the pool; a different package's arena
	// must reuse it (one transfer in, no new mmap).
	spansBefore, _ := h.Stats()
	b := h.Arena("b")
	if _, err := b.Alloc(2048); err != nil {
		t.Fatal(err)
	}
	spansAfter, _ := h.Stats()
	if spansAfter != spansBefore {
		t.Fatalf("pool not reused: %d -> %d spans", spansBefore, spansAfter)
	}
	want := []string{"a", "pool", "b"}
	for i, w := range want {
		if (*log)[i] != w {
			t.Fatalf("transfer log = %v, want %v", *log, want)
		}
	}
}

func TestTransferCountMatchesChurn(t *testing.T) {
	h, _, _ := testHeap(t)
	a := h.Arena("p")
	// Alloc/free of a single object drains the span every time:
	// 2 transfers per iteration (the bild pattern).
	const iters = 10
	for i := 0; i < iters; i++ {
		addr, err := a.Alloc(2048)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Free(addr); err != nil {
			t.Fatal(err)
		}
	}
	_, transfers := h.Stats()
	if transfers != 2*iters {
		t.Fatalf("transfers = %d, want %d", transfers, 2*iters)
	}
}

// TestAllocFreeProperty: random alloc/free sequences never hand out
// overlapping live allocations and always track ownership.
func TestAllocFreeProperty(t *testing.T) {
	type op struct {
		Alloc bool
		Size  uint16
		Which uint8
	}
	f := func(ops []op) bool {
		h, _, _ := testHeap(t)
		a := h.Arena("p")
		type live struct {
			addr mem.Addr
			size uint64
		}
		var livers []live
		for _, o := range ops {
			if o.Alloc || len(livers) == 0 {
				size := uint64(o.Size)%12288 + 1
				addr, err := a.Alloc(size)
				if err != nil {
					return false
				}
				// Slot-granular overlap check against everything live.
				for _, l := range livers {
					if addr < l.addr+mem.Addr(l.size) && l.addr < addr+mem.Addr(size) {
						return false
					}
				}
				if h.OwnerOf(addr) != "p" {
					return false
				}
				livers = append(livers, live{addr, size})
			} else {
				i := int(o.Which) % len(livers)
				if err := a.Free(livers[i].addr); err != nil {
					return false
				}
				livers = append(livers[:i], livers[i+1:]...)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestOwnerOfUnknown(t *testing.T) {
	h, _, _ := testHeap(t)
	if h.OwnerOf(0x12345) != "" {
		t.Fatal("unknown address has an owner")
	}
}

func TestLargeSpanReuse(t *testing.T) {
	h, _, _ := testHeap(t)
	a := h.Arena("p")
	addr1, err := a.Alloc(MaxSmall + 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(addr1); err != nil {
		t.Fatal(err)
	}
	spansBefore, _ := h.Stats()
	// Same (page-rounded) size: the parked span is reclaimed; a
	// different arena may take it.
	b := h.Arena("q")
	addr2, err := b.Alloc(MaxSmall + 100)
	if err != nil {
		t.Fatal(err)
	}
	spansAfter, _ := h.Stats()
	if spansAfter != spansBefore {
		t.Fatalf("large span not reused: %d -> %d spans", spansBefore, spansAfter)
	}
	if addr2 != addr1 {
		t.Fatalf("reuse returned %v, want the parked span at %v", addr2, addr1)
	}
	if h.OwnerOf(addr2) != "q" {
		t.Fatalf("reused span owner %q", h.OwnerOf(addr2))
	}
	// Double free of a reused-then-freed large span still detected.
	if err := b.Free(addr2); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(addr2); err == nil {
		t.Fatal("double free of pooled large span accepted")
	}
}

// TestSlotOrder pins the order slots are handed out in: freed slots
// first, newest first, then never-issued slots in ascending order, and
// a full span's freed slot before a fresh span. The expected offsets are
// the order a span pre-filled with a free-slot stack of every index
// produced, written out; addresses, and through them every virtual-time
// result and probe digest, depend on it. A clone's heap continues the
// same order.
func TestSlotOrder(t *testing.T) {
	h, _, _ := testHeap(t)
	a := h.Arena("p")
	var base mem.Addr
	alloc := func(n uint64) uint64 {
		t.Helper()
		addr, err := a.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if base == 0 {
			base = addr
		}
		return uint64(addr - base)
	}
	free := func(off uint64) {
		t.Helper()
		if err := a.Free(base + mem.Addr(off)); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	// Class 16: one span at offset 0.
	for i := 0; i < 3; i++ {
		got = append(got, alloc(16))
	}
	free(0x10)
	got = append(got, alloc(16))
	free(0x00)
	free(0x20)
	for i := 0; i < 3; i++ {
		got = append(got, alloc(16))
	}
	// Class 48: the next span; class 8192 holds two slots per span.
	got = append(got, alloc(48), alloc(48))
	free(SpanBytes)
	got = append(got, alloc(48), alloc(48))
	got = append(got, alloc(8192), alloc(8192), alloc(8192))
	free(2*SpanBytes + 8192)
	got = append(got, alloc(8192), alloc(8192))
	want := []uint64{
		0x00, 0x10, 0x20, // ascending
		0x10,             // the freed slot
		0x20, 0x00, 0x30, // freed slots newest first, then ascending
		0x4000, 0x4030, 0x4000, 0x4060,
		0x8000, 0xa000, 0xc000, // the third 8192 needs a fresh span
		0xa000, 0xe000, // a full span's freed slot, then the fresh span's next
	}
	if len(got) != len(want) {
		t.Fatalf("got %d allocations, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("allocation %d at +%#x, want +%#x (all: %#x)", i, got[i], want[i], got)
		}
	}

	free(0x10)
	c := h.CloneWith(h.mmap, h.transfer, func(s *mem.Section) *mem.Section { return s })
	for _, want := range []uint64{0x10, 0x40} {
		addr, err := c.Arena("p").Alloc(16)
		if err != nil {
			t.Fatal(err)
		}
		if off := uint64(addr - base); off != want {
			t.Fatalf("clone allocated +%#x, want +%#x", off, want)
		}
	}
}

// TestFreeNeverIssuedSlot: a slot the span has not handed out yet is
// not allocated, so freeing it is a double free.
func TestFreeNeverIssuedSlot(t *testing.T) {
	h, _, _ := testHeap(t)
	a := h.Arena("p")
	x, _ := a.Alloc(32)
	for _, addr := range []mem.Addr{x + 32, x + 5*32, x + SpanBytes - 32} {
		if err := a.Free(addr); !errors.Is(err, ErrDoubleFree) {
			t.Fatalf("free of never-issued %s: %v", addr, err)
		}
	}
	if err := a.Free(x); err != nil {
		t.Fatal(err)
	}
}

// TestPooledSpanRestartsAtSlotZero: a drained span parked in the pool
// and taken by another arena, in another class, hands out its slots
// from the start again.
func TestPooledSpanRestartsAtSlotZero(t *testing.T) {
	h, _, _ := testHeap(t)
	a := h.Arena("a")
	x, _ := a.Alloc(64)
	y, _ := a.Alloc(64)
	for _, addr := range []mem.Addr{y, x} {
		if err := a.Free(addr); err != nil {
			t.Fatal(err)
		}
	}
	b := h.Arena("b")
	for i, want := range []mem.Addr{x, x + 256, x + 512} {
		got, err := b.Alloc(256)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("allocation %d from the recycled span at %s, want %s", i, got, want)
		}
	}
	if spans, _ := h.Stats(); spans != 1 {
		t.Fatalf("%d spans created, want the one recycled span", spans)
	}
}

// TestResetToAllocs pins the heap of a recycled warm instance: a
// tenant that allocates a small and a large object in an arena its
// template lacks maps two spans and builds the arena; after the address
// space reverts and the heap resets, the next tenant doing the same
// lands at the same addresses and allocates nothing.
func TestResetToAllocs(t *testing.T) {
	space := mem.NewAddressSpace(0)
	mmap := func(size uint64) (*mem.Section, error) {
		return space.Map("span", "pool", mem.KindHeap, size, mem.PermR|mem.PermW)
	}
	transfer := func(s *mem.Section, toPkg string) error {
		space.SetOwner(s, toPkg)
		return nil
	}
	tmpl := NewHeap(mmap, transfer, "pool")
	if _, err := tmpl.Arena("main").Alloc(64); err != nil {
		t.Fatal(err)
	}
	space.Checkpoint()
	h := tmpl.CloneWith(mmap, transfer, func(s *mem.Section) *mem.Section { return s })
	var small, large mem.Addr
	tenant := func() {
		a := h.Arena("tenant")
		s, err := a.Alloc(100)
		if err != nil {
			t.Fatal(err)
		}
		l, err := a.Alloc(3 * MaxSmall)
		if err != nil {
			t.Fatal(err)
		}
		if small == 0 {
			small, large = s, l
		} else if s != small || l != large {
			t.Fatalf("tenant allocated at %s and %s, the first at %s and %s", s, l, small, large)
		}
		if err := space.Revert(); err != nil {
			t.Fatal(err)
		}
		h.ResetTo(tmpl)
		if live := h.Arena("tenant").Live(); live != 0 {
			t.Fatalf("the tenant's arena holds %d objects after ResetTo", live)
		}
	}
	tenant()
	if allocs := testing.AllocsPerRun(100, tenant); allocs != 0 {
		t.Fatalf("allocating in a fresh arena and resetting allocates %.1f objects/op, want 0", allocs)
	}
	if owner := h.OwnerOf(small); owner != "" {
		t.Fatalf("a span mapped since birth is still indexed after ResetTo (owner %q)", owner)
	}
}
