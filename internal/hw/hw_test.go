package hw

import (
	"testing"
	"testing/quick"
)

func TestClockAdvanceAndReset(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %d", c.Now())
	}
	c.Advance(42)
	c.Advance(8)
	if c.Now() != 50 {
		t.Fatalf("clock = %d, want 50", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("reset clock at %d", c.Now())
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	NewClock().Advance(-1)
}

func TestPKRUKeyEncoding(t *testing.T) {
	p := PKRUAllDenied
	for k := 0; k < NumKeys; k++ {
		if p.CanRead(k) || p.CanWrite(k) {
			t.Fatalf("all-denied PKRU allows key %d", k)
		}
	}
	p = PKRUAllAllowed
	for k := 0; k < NumKeys; k++ {
		if !p.CanRead(k) || !p.CanWrite(k) {
			t.Fatalf("all-allowed PKRU denies key %d", k)
		}
	}

	p = PKRUAllDenied.WithKey(3, true, false)
	if !p.CanRead(3) || p.CanWrite(3) {
		t.Fatalf("key 3 should be read-only: %v", p)
	}
	if p.CanRead(2) || p.CanRead(4) {
		t.Fatalf("neighbouring keys affected: %v", p)
	}

	p = p.WithKey(3, true, true)
	if !p.CanWrite(3) {
		t.Fatalf("upgrade to RW failed: %v", p)
	}
	p = p.WithKey(3, false, false)
	if p.CanRead(3) {
		t.Fatalf("downgrade to denied failed: %v", p)
	}
}

// TestPKRUProperty checks WithKey/CanRead/CanWrite agree for arbitrary
// key/rights combinations and never disturb other keys.
func TestPKRUProperty(t *testing.T) {
	f := func(base uint32, key uint8, read, write bool) bool {
		k := int(key) % NumKeys
		before := PKRU(base)
		after := before.WithKey(k, read, write)
		// Write implies read in the x86 encoding (WD only matters when
		// AD is clear); our WithKey takes write only meaningfully when
		// read is set.
		wantRead := read
		wantWrite := read && write
		if after.CanRead(k) != wantRead || after.CanWrite(k) != wantWrite {
			return false
		}
		for other := 0; other < NumKeys; other++ {
			if other == k {
				continue
			}
			if after.CanRead(other) != before.CanRead(other) ||
				after.CanWrite(other) != before.CanWrite(other) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPKRUOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithKey(16) did not panic")
		}
	}()
	PKRUAllAllowed.WithKey(NumKeys, true, true)
}

func TestCPUModeTransitions(t *testing.T) {
	cpu := NewCPU(NewClock())
	if cpu.Mode() != ModeUser {
		t.Fatalf("fresh CPU in %v", cpu.Mode())
	}
	prev := cpu.GuestSyscallEntry()
	if cpu.Mode() != ModeGuestKernel {
		t.Fatalf("after entry: %v", cpu.Mode())
	}
	cpu.GuestSyscallExit(prev)
	if cpu.Mode() != ModeUser {
		t.Fatalf("after exit: %v", cpu.Mode())
	}
	prev = cpu.VMExit()
	if cpu.Mode() != ModeRoot {
		t.Fatalf("after VM exit: %v", cpu.Mode())
	}
	cpu.VMResume(prev)
	if cpu.Mode() != ModeUser {
		t.Fatalf("after VM resume: %v", cpu.Mode())
	}
}

func TestCR3RequiresKernelMode(t *testing.T) {
	cpu := NewCPU(NewClock())
	if err := cpu.WriteCR3(1); err == nil {
		t.Fatal("user-mode CR3 write allowed")
	}
	prev := cpu.GuestSyscallEntry()
	if err := cpu.WriteCR3(1); err != nil {
		t.Fatalf("kernel-mode CR3 write failed: %v", err)
	}
	cpu.GuestSyscallExit(prev)
	if cpu.CR3() != 1 {
		t.Fatalf("CR3 = %d, want 1", cpu.CR3())
	}
}

func TestCostAccounting(t *testing.T) {
	clock := NewClock()
	cpu := NewCPU(clock)

	cpu.WritePKRU(PKRUAllDenied)
	if clock.Now() != CostWRPKRU {
		t.Fatalf("WRPKRU charged %dns, want %d", clock.Now(), CostWRPKRU)
	}
	if cpu.Counters.WRPKRUWrites != 1 {
		t.Fatal("WRPKRU not counted")
	}

	clock.Reset()
	prev := cpu.GuestSyscallEntry()
	cpu.GuestSyscallExit(prev)
	if clock.Now() != 2*CostSyscallEntry {
		t.Fatalf("guest syscall charged %dns, want %d", clock.Now(), 2*CostSyscallEntry)
	}

	clock.Reset()
	prev = cpu.VMExit()
	cpu.VMResume(prev)
	if clock.Now() != CostVMExit {
		t.Fatalf("VM exit charged %dns, want %d", clock.Now(), CostVMExit)
	}
	if cpu.Counters.VMExits != 1 {
		t.Fatal("VM exit not counted")
	}
}

func TestCountersSnapshotAndReset(t *testing.T) {
	var c Counters
	c.Switches += 3
	c.Faults++
	s := c.Snapshot()
	if s.Switches != 3 || s.Faults != 1 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty snapshot string")
	}
	c.Reset()
	if c.Snapshot().Switches != 0 {
		t.Fatal("reset did not clear counters")
	}
}

func TestTable1Identities(t *testing.T) {
	// The cost constants must compose into the paper's Table 1 cells.
	if got := CostClosureCall + 2*CostWRPKRU; got != 85 {
		t.Errorf("MPK call = %d, want ~86", got)
	}
	if got := CostClosureCall + 2*(2*CostSyscallEntry+CostCR3Switch); got != 929 {
		t.Errorf("VTX call = %d, want ~924", got)
	}
	if got := CostSyscall + CostBPFFilter; got != 523 {
		t.Errorf("MPK syscall = %d, want 523", got)
	}
	if got := CostSyscall + 2*CostSyscallEntry + CostVMExit; got != 4126 {
		t.Errorf("VTX syscall = %d, want 4126", got)
	}
}

func TestStringers(t *testing.T) {
	if ModeUser.String() != "user" || ModeGuestKernel.String() != "guest-kernel" ||
		ModeRoot.String() != "root" || Mode(9).String() == "" {
		t.Error("Mode strings")
	}
	p := PKRUAllDenied.WithKey(2, true, true).WithKey(3, true, false)
	s := p.String()
	if s == "" || s[:5] != "PKRU[" {
		t.Errorf("PKRU string %q", s)
	}
}

func TestPKRUReadCharges(t *testing.T) {
	clock := NewClock()
	cpu := NewCPU(clock)
	cpu.WritePKRU(PKRUAllDenied)
	before := clock.Now()
	if cpu.PKRU() != PKRUAllDenied {
		t.Error("PKRU read")
	}
	if clock.Now()-before != CostRDPKRU {
		t.Errorf("RDPKRU charged %d", clock.Now()-before)
	}
	if cpu.PeekPKRU() != PKRUAllDenied {
		t.Error("PeekPKRU")
	}
	if clock.Now()-before != CostRDPKRU {
		t.Error("PeekPKRU charged the clock")
	}
}

func TestSetMode(t *testing.T) {
	cpu := NewCPU(NewClock())
	cpu.SetMode(ModeGuestKernel)
	if cpu.Mode() != ModeGuestKernel {
		t.Error("SetMode")
	}
	cpu.SetMode(ModeUser)
}
