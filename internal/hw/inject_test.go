package hw

import "testing"

// TestInjectorArmsFireOnceOnTheNth: each arm fires exactly on the n-th
// occurrence it counts, is then disarmed, and Fired counts the firing.
func TestInjectorArmsFireOnceOnTheNth(t *testing.T) {
	const n = 3
	cases := []struct {
		name  string
		arm   func(*Injector)
		occur func(*Injector) bool // one occurrence; true when it fired as armed
		fired func(InjectStats) int
	}{
		{
			name: "pkru",
			arm:  func(in *Injector) { in.ArmPKRUCorrupt(n, 0b1100) },
			occur: func(in *Injector) bool {
				return in.corruptPKRU(PKRUAllAllowed) != PKRUAllAllowed
			},
			fired: func(s InjectStats) int { return s.PKRUFlips },
		},
		{
			name: "errno",
			arm:  func(in *Injector) { in.ArmSyscallErrno(n, 11) },
			occur: func(in *Injector) bool {
				e, ok := in.SyscallErrno()
				return ok && e == 11
			},
			fired: func(s InjectStats) int { return s.SyscallErrnos },
		},
		{
			name:  "transfer",
			arm:   func(in *Injector) { in.ArmTransferFault(n) },
			occur: func(in *Injector) bool { return in.TransferFault() },
			fired: func(s InjectStats) int { return s.TransferFaults },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := NewInjector()
			if c.occur(in) {
				t.Fatal("a disarmed injector fired")
			}
			c.arm(in)
			for i := 1; i <= 2*n; i++ {
				if got, want := c.occur(in), i == n; got != want {
					t.Fatalf("occurrence %d fired = %v, want %v", i, got, want)
				}
			}
			if got := c.fired(in.Fired()); got != 1 {
				t.Fatalf("Fired counts %d, want 1", got)
			}
			if s := in.Fired(); s.PKRUFlips+s.SyscallErrnos+s.TransferFaults != 1 {
				t.Fatalf("another kind counted a firing: %+v", s)
			}
		})
	}
}

// TestWritePKRUCorruptedByArmedInjector: the flip lands in the register
// on the armed write only.
func TestWritePKRUCorruptedByArmedInjector(t *testing.T) {
	c := NewCPU(NewClock())
	c.Inj = NewInjector()
	c.Inj.ArmPKRUCorrupt(2, 0b11)
	c.WritePKRU(PKRUAllDenied)
	if c.PeekPKRU() != PKRUAllDenied {
		t.Fatalf("first write stored %v", c.PeekPKRU())
	}
	c.WritePKRU(PKRUAllDenied)
	if want := PKRUAllDenied ^ 0b11; c.PeekPKRU() != want {
		t.Fatalf("armed write stored %v, want %v", c.PeekPKRU(), want)
	}
	c.WritePKRU(PKRUAllDenied)
	if c.PeekPKRU() != PKRUAllDenied {
		t.Fatalf("write after the firing stored %v", c.PeekPKRU())
	}
}

// TestCPUResetRestoresRegisters: Reset puts back NewCPU's registers and
// drops the package and injector, but keeps the clock and counters.
func TestCPUResetRestoresRegisters(t *testing.T) {
	clock := NewClock()
	c := NewCPU(clock)
	fresh := *c
	counters := c.Counters
	c.SetMode(ModeGuestKernel)
	c.WritePKRU(PKRUAllDenied)
	if err := c.WriteCR3(7); err != nil {
		t.Fatal(err)
	}
	c.Pkg, c.Inj = "lib", NewInjector()
	now, writes := clock.Now(), counters.WRPKRUWrites

	c.Reset()
	if c.PeekPKRU() != fresh.PeekPKRU() || c.CR3() != fresh.CR3() || c.Mode() != fresh.Mode() {
		t.Fatalf("Reset left pkru %v cr3 %d mode %v, want %v %d %v",
			c.PeekPKRU(), c.CR3(), c.Mode(), fresh.PeekPKRU(), fresh.CR3(), fresh.Mode())
	}
	if c.Pkg != "" || c.Inj != nil {
		t.Fatalf("Reset kept package %q and injector %v", c.Pkg, c.Inj)
	}
	if c.Clock != clock || c.Counters != counters || clock.Now() != now || counters.WRPKRUWrites != writes {
		t.Fatal("Reset replaced or rewound the clock or counters")
	}
}
