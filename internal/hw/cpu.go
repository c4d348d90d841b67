package hw

import "fmt"

// Mode is the privilege mode of a virtual CPU. The LB_VTX backend runs
// application code in non-root user mode, its guest kernel in non-root
// kernel mode, and the host (KVM side) in root mode.
type Mode uint8

const (
	// ModeUser is non-root user mode: the application and its packages.
	ModeUser Mode = iota
	// ModeGuestKernel is non-root kernel mode: LitterBox's super package
	// acting as the guest operating system under LB_VTX.
	ModeGuestKernel
	// ModeRoot is VMX root mode: the host kernel reached via VM EXIT.
	ModeRoot
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeUser:
		return "user"
	case ModeGuestKernel:
		return "guest-kernel"
	case ModeRoot:
		return "root"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// PKRU is the 32-bit protection-key rights register: two bits per key,
// bit 2k = AD (access disable), bit 2k+1 = WD (write disable).
type PKRU uint32

// NumKeys is the number of protection keys Intel MPK provides.
const NumKeys = 16

// PKRUAllDenied has every key's AD bit set: no data access at all.
const PKRUAllDenied PKRU = 0x55555555

// PKRUAllAllowed grants read-write access through every key.
const PKRUAllAllowed PKRU = 0

// WithKey returns p with key k's bits set for the given rights.
func (p PKRU) WithKey(k int, read, write bool) PKRU {
	if k < 0 || k >= NumKeys {
		panic(fmt.Sprintf("hw: protection key %d out of range", k))
	}
	p &^= PKRU(0b11) << (2 * uint(k))
	if !read {
		p |= PKRU(0b01) << (2 * uint(k)) // AD: all access disabled
	} else if !write {
		p |= PKRU(0b10) << (2 * uint(k)) // WD: writes disabled
	}
	return p
}

// CanRead reports whether data tagged with key k may be read under p.
func (p PKRU) CanRead(k int) bool {
	return p>>(2*uint(k))&0b01 == 0
}

// CanWrite reports whether data tagged with key k may be written under p.
func (p PKRU) CanWrite(k int) bool {
	return p>>(2*uint(k))&0b11 == 0
}

// String renders the register as per-key rights, most-permissive first.
func (p PKRU) String() string {
	out := make([]byte, 0, NumKeys)
	for k := 0; k < NumKeys; k++ {
		switch {
		case p.CanWrite(k):
			out = append(out, 'W')
		case p.CanRead(k):
			out = append(out, 'R')
		default:
			out = append(out, '-')
		}
	}
	return fmt.Sprintf("PKRU[%s]=%#08x", out, uint32(p))
}

// CPU is the architectural state one simulated hardware thread exposes
// to the isolation backends. The single-core runtime binds one CPU per
// simulated program and multiplexes simulated goroutines over it exactly
// as the paper's single-threaded evaluation does; the multi-core engine
// (internal/engine) binds one CPU per worker. Its registers, like the
// Clock and Counters it charges, are plain: the simulated goroutine
// that uses a CPU holds its program's run token (core.Program), so the
// CPUs of one program take turns.
type CPU struct {
	Clock    *Clock
	Counters *Counters

	// Pkg is observability metadata, not architectural state: the
	// package whose code is currently issuing system calls on this CPU.
	// The language frontend maintains it and the kernel's event tracer
	// reads it; only the CPU's owning goroutine touches it.
	Pkg string

	// Inj, when non-nil, scripts transient faults into this CPU's
	// execution (see Injector). Production programs leave it nil; the
	// probe engine arms it to check fault containment.
	Inj *Injector

	pkru PKRU
	cr3  int // identifier of the active page table (LB_VTX)
	mode Mode
}

// NewCPU returns a CPU in user mode with an all-allowing PKRU and page
// table 0 active, sharing the given clock and charging counters of its
// own.
func NewCPU(clock *Clock) *CPU {
	c := CPUOn(clock, &Counters{})
	return &c
}

// CPUOn returns NewCPU's register state charging the given clock and
// counters, as a value its owner can embed: a simulated goroutine
// carries its CPU inline instead of in an allocation of its own.
func CPUOn(clock *Clock, counters *Counters) CPU {
	return CPU{Clock: clock, Counters: counters, pkru: PKRUAllAllowed}
}

// Reset returns the CPU to NewCPU's register state — user mode, an
// all-allowing PKRU, page table 0, no package, no injector — keeping
// its clock and counters.
func (c *CPU) Reset() {
	c.Pkg, c.Inj = "", nil
	c.pkru, c.cr3, c.mode = PKRUAllAllowed, 0, ModeUser
}

// PKRU returns the current value of the protection-key rights register.
// Reading PKRU is unprivileged, mirroring RDPKRU.
func (c *CPU) PKRU() PKRU {
	c.Clock.Advance(CostRDPKRU)
	return c.pkru
}

// WritePKRU sets the protection-key rights register, charging the WRPKRU
// cost. Like the hardware instruction it is unprivileged; call-site
// verification is LitterBox's job (see the paper's .verif section).
func (c *CPU) WritePKRU(v PKRU) {
	c.Clock.Advance(CostWRPKRU)
	c.Counters.WRPKRUWrites++
	if c.Inj != nil {
		v = c.Inj.corruptPKRU(v)
	}
	c.pkru = v
}

// PeekPKRU returns PKRU without charging the clock (for assertions).
func (c *CPU) PeekPKRU() PKRU { return c.pkru }

// CR3 returns the identifier of the active page table.
func (c *CPU) CR3() int { return c.cr3 }

// WriteCR3 installs a new page-table root. Only kernel modes may do so.
func (c *CPU) WriteCR3(pt int) error {
	if c.Mode() == ModeUser {
		return fmt.Errorf("hw: #GP: WriteCR3 from user mode")
	}
	c.Clock.Advance(CostCR3Switch)
	c.cr3 = pt
	return nil
}

// Mode returns the current privilege mode.
func (c *CPU) Mode() Mode { return c.mode }

// SetMode transitions privilege mode without charging costs; the callers
// (guest syscall and VM EXIT paths) charge their own entry costs.
func (c *CPU) SetMode(m Mode) { c.mode = m }

// GuestSyscallEntry charges one kernel-entry leg and moves the CPU into
// guest-kernel mode, returning the mode to restore on exit.
func (c *CPU) GuestSyscallEntry() Mode {
	c.Clock.Advance(CostSyscallEntry)
	c.Counters.GuestSyscalls++
	prev := c.Mode()
	c.SetMode(ModeGuestKernel)
	return prev
}

// GuestSyscallExit charges the return leg and restores the saved mode.
func (c *CPU) GuestSyscallExit(prev Mode) {
	c.Clock.Advance(CostSyscallEntry)
	c.SetMode(prev)
}

// VMExit charges a hypercall round trip and moves the CPU to root mode,
// returning the mode to restore at VM RESUME.
func (c *CPU) VMExit() Mode {
	c.Clock.Advance(CostVMExit)
	c.Counters.VMExits++
	prev := c.Mode()
	c.SetMode(ModeRoot)
	return prev
}

// VMResume restores non-root execution after a VM EXIT.
func (c *CPU) VMResume(prev Mode) { c.SetMode(prev) }
