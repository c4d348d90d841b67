package cheri

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/mem"
)

func newUnit(t *testing.T) (*Unit, *hw.CPU, *hw.Clock) {
	t.Helper()
	clock := hw.NewClock()
	return NewUnit(clock), hw.NewCPU(clock), clock
}

func TestCapCovers(t *testing.T) {
	c := Cap{Base: 0x1000, Len: 0x100, Perm: mem.PermR | mem.PermW}
	cases := []struct {
		addr mem.Addr
		size uint64
		want mem.Perm
		ok   bool
	}{
		{0x1000, 0x100, mem.PermR, true},
		{0x1000, 0x101, mem.PermR, false}, // over the end
		{0x10FF, 1, mem.PermR, true},      // last byte
		{0x1100, 1, mem.PermR, false},     // one past
		{0x0FFF, 1, mem.PermR, false},     // one before
		{0x1010, 8, mem.PermR | mem.PermW, true},
		{0x1010, 8, mem.PermX, false},            // no execute right
		{0x1010, 1<<64 - 0x10, mem.PermR, false}, // offset+size wraps to 0
	}
	for i, tc := range cases {
		if got := c.Covers(tc.addr, tc.size, tc.want); got != tc.ok {
			t.Errorf("case %d: Covers(%s,%d,%v) = %v", i, tc.addr, tc.size, tc.want, got)
		}
	}
}

func TestByteGranularAccess(t *testing.T) {
	u, cpu, _ := newUnit(t)
	tab := u.CreateTable()
	// A read-only region with a 16-byte writable window inside it — the
	// co-located CPython header scenario.
	if err := u.Grant(tab, Cap{Base: 0x400000, Len: 0x1000, Perm: mem.PermR}); err != nil {
		t.Fatal(err)
	}
	if err := u.Grant(tab, Cap{Base: 0x400200, Len: 16, Perm: mem.PermR | mem.PermW}); err != nil {
		t.Fatal(err)
	}

	if err := u.CheckAccess(cpu, 0x400100, 8, false); err != nil {
		t.Fatalf("read in region: %v", err)
	}
	if err := u.CheckAccess(cpu, 0x400200, 8, true); err != nil {
		t.Fatalf("write in the 16-byte window: %v", err)
	}
	if err := u.CheckAccess(cpu, 0x400208, 8, true); err != nil {
		t.Fatalf("write at window end: %v", err)
	}
	var ae *AccessError
	if err := u.CheckAccess(cpu, 0x400210, 1, true); !errors.As(err, &ae) {
		t.Fatalf("write one byte past the window: %v", err)
	}
	if err := u.CheckAccess(cpu, 0x400209, 8, true); err == nil {
		t.Fatal("write straddling the window end allowed")
	}
	if err := u.CheckAccess(cpu, 0x401000, 1, false); err == nil {
		t.Fatal("read past the region allowed")
	}
}

func TestExecCapability(t *testing.T) {
	u, cpu, _ := newUnit(t)
	tab := u.CreateTable()
	_ = u.Grant(tab, Cap{Base: 0x1000, Len: 64, Perm: mem.PermR | mem.PermX})
	_ = u.Grant(tab, Cap{Base: 0x2000, Len: 64, Perm: mem.PermR})
	if err := u.CheckExec(cpu, 0x1000); err != nil {
		t.Fatalf("exec in RX cap: %v", err)
	}
	if err := u.CheckExec(cpu, 0x2000); err == nil {
		t.Fatal("exec in R cap allowed")
	}
}

func TestSwitchAndTables(t *testing.T) {
	u, cpu, clock := newUnit(t)
	a := u.CreateTable()
	b := u.CreateTable()
	_ = u.Grant(a, Cap{Base: 0x1000, Len: 64, Perm: mem.PermR})

	start := clock.Now()
	if err := u.Switch(cpu, b); err != nil {
		t.Fatal(err)
	}
	if clock.Now()-start != hw.CostCapSwitch+hw.CostCR3Switch {
		t.Fatalf("switch cost %d", clock.Now()-start)
	}
	// Table b has no capability over 0x1000.
	if err := u.CheckAccess(cpu, 0x1000, 1, false); err == nil {
		t.Fatal("access through the wrong table allowed")
	}
	if err := u.Switch(cpu, a); err != nil {
		t.Fatal(err)
	}
	if err := u.CheckAccess(cpu, 0x1000, 1, false); err != nil {
		t.Fatalf("access through the right table: %v", err)
	}
	if err := u.Switch(cpu, 99); !errors.Is(err, ErrNoTable) {
		t.Fatalf("switch to missing table: %v", err)
	}
}

func TestRevokeRange(t *testing.T) {
	u, cpu, _ := newUnit(t)
	tab := u.CreateTable()
	_ = u.Grant(tab, Cap{Base: 0x1000, Len: 0x1000, Perm: mem.PermR | mem.PermW})
	_ = u.Grant(tab, Cap{Base: 0x3000, Len: 0x1000, Perm: mem.PermR})
	if err := u.RevokeRange(tab, 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := u.CheckAccess(cpu, 0x1000, 1, false); err == nil {
		t.Fatal("revoked capability still grants")
	}
	if err := u.CheckAccess(cpu, 0x3000, 1, false); err != nil {
		t.Fatalf("unrelated capability lost: %v", err)
	}
	if u.Count(tab) != 1 {
		t.Fatalf("count %d", u.Count(tab))
	}
}

// TestLookupProperty: the table lookup agrees with a linear scan over
// arbitrary capability sets and probes.
func TestLookupProperty(t *testing.T) {
	f := func(bases []uint16, probe uint16, size uint8, write bool) bool {
		u, cpu, _ := newUnit(t)
		tab := u.CreateTable()
		var caps []Cap
		for i, b := range bases {
			if i >= 12 {
				break
			}
			c := Cap{
				Base: mem.Addr(b),
				Len:  uint64(b%97) + 1,
				Perm: mem.PermR,
			}
			if b%3 == 0 {
				c.Perm |= mem.PermW
			}
			caps = append(caps, c)
			if err := u.Grant(tab, c); err != nil {
				return false
			}
		}
		want := mem.PermR
		if write {
			want |= mem.PermW
		}
		sz := uint64(size%16) + 1
		expected := false
		for _, c := range caps {
			if c.Covers(mem.Addr(probe), sz, want) {
				expected = true
				break
			}
		}
		err := u.CheckAccess(cpu, mem.Addr(probe), sz, write)
		return (err == nil) == expected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}
