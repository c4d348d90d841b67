package vtx

import (
	"errors"
	"testing"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/mem"
)

func newMachine(t *testing.T) (*Machine, *mem.AddressSpace, *hw.CPU, *hw.Clock) {
	t.Helper()
	space := mem.NewAddressSpace(0)
	clock := hw.NewClock()
	return NewMachine(space, clock), space, hw.NewCPU(clock), clock
}

func TestTableLifecycle(t *testing.T) {
	m, space, cpu, _ := newMachine(t)
	trusted := m.CreateTable()
	if trusted != 0 {
		t.Fatalf("first table id %d", trusted)
	}
	encl := m.CreateTable()
	sec, _ := space.Map("d", "p", mem.KindData, 2*mem.PageSize, mem.PermR|mem.PermW)

	if err := m.MapSection(trusted, sec, mem.PermR|mem.PermW); err != nil {
		t.Fatal(err)
	}
	if err := m.MapSection(encl, sec, mem.PermR); err != nil {
		t.Fatal(err)
	}
	if err := m.MapSection(99, sec, mem.PermR); !errors.Is(err, ErrNoTable) {
		t.Fatalf("bad table: %v", err)
	}

	// Trusted table: RW ok.
	if err := m.CheckAccess(cpu, sec.Base, 16, true); err != nil {
		t.Fatalf("trusted write: %v", err)
	}
	// Enclosure table: read ok, write faults.
	prev := cpu.GuestSyscallEntry()
	if err := cpu.WriteCR3(encl); err != nil {
		t.Fatal(err)
	}
	cpu.GuestSyscallExit(prev)
	if err := m.CheckAccess(cpu, sec.Base, 16, false); err != nil {
		t.Fatalf("enclosure read: %v", err)
	}
	var ae *AccessError
	if err := m.CheckAccess(cpu, sec.Base, 16, true); !errors.As(err, &ae) {
		t.Fatalf("enclosure write: %v", err)
	}
	if ae.Table != encl || !ae.Write {
		t.Fatalf("fault detail: %+v", ae)
	}

	// Unmap: reads fault too.
	if err := m.UnmapSection(encl, sec); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckAccess(cpu, sec.Base, 1, false); err == nil {
		t.Fatal("unmapped read allowed")
	}
	if m.Mapped(encl, sec.Base) != mem.PermNone {
		t.Fatal("Mapped after unmap")
	}
	if m.Mapped(trusted, sec.Base) != mem.PermR|mem.PermW {
		t.Fatal("trusted mapping disturbed")
	}
}

func TestCheckExec(t *testing.T) {
	m, space, cpu, _ := newMachine(t)
	pt := m.CreateTable()
	text, _ := space.Map("t", "p", mem.KindText, mem.PageSize, mem.PermR|mem.PermX)
	data, _ := space.Map("d", "p", mem.KindData, mem.PageSize, mem.PermR|mem.PermW)
	_ = m.MapSection(pt, text, mem.PermR|mem.PermX)
	_ = m.MapSection(pt, data, mem.PermR|mem.PermW)

	if err := m.CheckExec(cpu, text.Base); err != nil {
		t.Fatalf("exec in text: %v", err)
	}
	var ae *AccessError
	if err := m.CheckExec(cpu, data.Base); !errors.As(err, &ae) || !ae.Exec {
		t.Fatalf("exec in data: %v", err)
	}
}

func TestGuestSwitch(t *testing.T) {
	m, _, cpu, clock := newMachine(t)
	a := m.CreateTable()
	b := m.CreateTable()
	_ = a

	start := clock.Now()
	if err := m.GuestSwitch(cpu, b, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if cpu.CR3() != b {
		t.Fatalf("CR3 = %d", cpu.CR3())
	}
	cost := clock.Now() - start
	want := int64(2*hw.CostSyscallEntry + hw.CostCR3Switch)
	if cost != want {
		t.Fatalf("switch cost %dns, want %d", cost, want)
	}
	if cpu.Mode() != hw.ModeUser {
		t.Fatalf("mode after switch: %v", cpu.Mode())
	}

	// Verification failure leaves CR3 untouched.
	denied := errors.New("bad call-site")
	if err := m.GuestSwitch(cpu, a, func() error { return denied }); !errors.Is(err, denied) {
		t.Fatalf("verify: %v", err)
	}
	if cpu.CR3() != b {
		t.Fatal("CR3 changed despite failed verification")
	}
	if err := m.GuestSwitch(cpu, 42, nil); !errors.Is(err, ErrNoTable) {
		t.Fatalf("switch to missing table: %v", err)
	}
}

func TestHypercall(t *testing.T) {
	m, _, cpu, clock := newMachine(t)
	_ = m
	start := clock.Now()
	got := Hypercall(cpu, func() int {
		if cpu.Mode() != hw.ModeRoot {
			t.Errorf("handler ran in %v", cpu.Mode())
		}
		return 7
	})
	if got != 7 {
		t.Fatalf("hypercall result %d", got)
	}
	if cpu.Mode() != hw.ModeUser {
		t.Fatalf("mode after resume: %v", cpu.Mode())
	}
	if clock.Now()-start != hw.CostVMExit {
		t.Fatalf("hypercall cost %d", clock.Now()-start)
	}
	if cpu.Counters.VMExits != 1 {
		t.Fatal("VM exit not counted")
	}
}

func TestPhysAddrLimit(t *testing.T) {
	m, _, _, _ := newMachine(t)
	pt := m.CreateTable()
	high := &mem.Section{Name: "high", Base: mem.Addr(1) << 41, Size: mem.PageSize}
	if err := m.MapSection(pt, high, mem.PermR); !errors.Is(err, ErrTooHigh) {
		t.Fatalf("40-bit limit: %v", err)
	}
}

func TestCheckAccessNoTable(t *testing.T) {
	m, _, cpu, _ := newMachine(t)
	if err := m.CheckAccess(cpu, 0x400000, 1, false); !errors.Is(err, ErrNoTable) {
		t.Fatalf("no table: %v", err)
	}
	if err := m.CheckAccess(cpu, 0x400000, 0, true); err != nil {
		t.Fatalf("zero-size access: %v", err)
	}
}
