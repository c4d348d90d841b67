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
