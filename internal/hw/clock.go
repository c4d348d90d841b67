// Package hw models the hardware substrate shared by every LitterBox
// backend: a virtual clock with a calibrated cost model and the
// architectural state of a virtual CPU (PKRU register, page-table root,
// privilege mode).
//
// The paper evaluates on an Intel Xeon Gold 6132 with MPK- and
// VT-x-capable silicon. This reproduction has neither, so timing is
// carried by a deterministic virtual clock: every simulated hardware
// operation advances the clock by a cost calibrated against the paper's
// Table 1 micro-benchmarks. Mechanism *counts* (switches, VM exits, BPF
// evaluations, pkey_mprotect calls) are produced by the real simulated
// control flow, so macro-level shape emerges from the same arithmetic the
// paper's hardware performed.
package hw

import "fmt"

// Cost model, in nanoseconds. Calibrated against Table 1 of the paper
// (Xeon Gold 6132 @ 2.60 GHz, Linux 5.4, single-threaded):
//
//	            Baseline  LB_MPK  LB_VTX
//	call            45       86     924
//	transfer         0     1002     158
//	syscall        387      523    4126
const (
	// CostClosureCall is the cost of a vanilla Go closure call and
	// return (the paper's Baseline "call" row).
	CostClosureCall = 45

	// CostWRPKRU is one write of the PKRU register. The paper measures a
	// full MPK switch (two WRPKRU plus verification) at ~40ns over
	// baseline, i.e. ~20ns per PKRU write.
	CostWRPKRU = 20

	// CostRDPKRU is a read of PKRU; effectively free next to a write.
	CostRDPKRU = 2

	// CostSyscall is a native Linux system call with a trivial handler
	// (getuid), end to end. Table 1 Baseline "syscall" row.
	CostSyscall = 387

	// CostSyscallEntry is one kernel entry or exit leg without the
	// handler body; a guest syscall into the LB_VTX guest kernel costs
	// two legs (~440ns). A switch is one guest syscall, so an enclosure
	// call (Prolog + Epilog) measures two of them, reproducing the VTX
	// call row: 45 + 2*(2*220) ≈ 924 — the paper notes "effectively we
	// measure the cost of two system calls".
	CostSyscallEntry = 220

	// CostBPFFilter is one seccomp cBPF program evaluation, including the
	// PKRU fetch the paper's kernel patch adds to seccomp_data.
	// 387 + 136 ≈ 523, the MPK syscall row.
	CostBPFFilter = 136

	// CostVMExit is a VM EXIT plus VM RESUME round trip with host-side
	// dispatch. A filtered LB_VTX syscall pays one guest syscall
	// (2*220) plus this, on top of the native 387:
	// 387 + 440 + 3299 ≈ 4126, the VTX syscall row.
	CostVMExit = 3299

	// CostPkeyMprotect is the pkey_mprotect system call that re-tags a
	// span's page-table entries. Table 1 MPK "transfer" row.
	CostPkeyMprotect = 1002

	// CostEPTToggle is toggling presence bits for a span in the
	// per-environment page tables plus the guest syscall that requests
	// it. Table 1 VTX "transfer" row.
	CostEPTToggle = 158

	// CostPTWalk is a software page-table walk on a TLB miss. Kept small:
	// translation itself is not what the paper bills for.
	CostPTWalk = 1

	// The CHERI-backend costs below are PROJECTIONS, not measurements:
	// the paper names CHERI as a future non-page-based LitterBox
	// backend (§7/§8) but reports no numbers for it. The model assumes
	// the paper's "ideal solution": MPK-like switch cost and an
	// in-process monitor for system calls.

	// CostCapSwitch is installing an execution environment's capability
	// table (a register write plus a tag check).
	CostCapSwitch = 25

	// CostCapSyscallCheck is the in-process monitor validating a system
	// call against the environment's filter ("the ability to filter
	// system calls in a protected library operating system").
	CostCapSyscallCheck = 60

	// CostCapUpdate is re-deriving one capability on an arena transfer.
	CostCapUpdate = 40

	// CostCR3Switch is the page-table root swap inside the guest kernel
	// (the iret path of a VTX switch); the dominant cost of the switch is
	// the two guest syscall legs, not the MOV CR3 itself.
	CostCR3Switch = 2

	// CostRingEntry is the per-entry bookkeeping of a batched syscall
	// drain: reading one SQE, posting one CQE. The batch's single trap
	// (CostSyscall) is charged once by the drain, so this — plus the
	// per-entry verdict where a filter is installed — is all an entry
	// pays instead of the full per-call trap, the io_uring arithmetic
	// the §6 cost model rewards.
	CostRingEntry = 12
)

// Clock is a monotonically increasing virtual clock measured in
// nanoseconds. It is a plain counter, not safe for concurrent use: the
// simulated goroutines that charge one clock take turns under their
// program's run token (core.Program), so only one of them advances it
// at a time, mirroring the paper's single-threaded evaluation
// methodology. Host code reads it between simulated calls.
type Clock struct {
	ns int64
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Advance charges ns nanoseconds of simulated time.
func (c *Clock) Advance(ns int64) {
	if ns < 0 {
		panic("hw: negative clock advance")
	}
	c.ns += ns
}

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() int64 { return c.ns }

// Reset rewinds the clock to zero (between benchmark iterations).
func (c *Clock) Reset() { c.ns = 0 }

// Counters tallies simulated hardware events. Like Clock it is plain
// and owned by whichever simulated goroutine holds the run token; a
// copy of the struct is a snapshot.
type Counters struct {
	Switches      int64 // Prolog/Epilog/Execute environment switches
	WRPKRUWrites  int64 // PKRU register writes (LB_MPK)
	VMExits       int64 // hypercalls / VM EXITs (LB_VTX)
	GuestSyscalls int64 // syscalls into the LB_VTX guest kernel
	Syscalls      int64 // program-visible system calls
	BPFRuns       int64 // seccomp filter evaluations
	Transfers     int64 // arena span transfers
	PkeyMprotects int64 // pkey_mprotect invocations (LB_MPK)
	PTWalks       int64 // software page-table walks
	Faults        int64 // protection faults raised
	RingBatches   int64 // batched syscall ring drains
	RingEntries   int64 // syscall entries dispatched from ring batches
}

// CounterSnapshot is a copy of Counters taken by Snapshot.
type CounterSnapshot = Counters

// AddDelta adds the counts from before to after to c.
func (c *Counters) AddDelta(after, before Counters) {
	c.Switches += after.Switches - before.Switches
	c.WRPKRUWrites += after.WRPKRUWrites - before.WRPKRUWrites
	c.VMExits += after.VMExits - before.VMExits
	c.GuestSyscalls += after.GuestSyscalls - before.GuestSyscalls
	c.Syscalls += after.Syscalls - before.Syscalls
	c.BPFRuns += after.BPFRuns - before.BPFRuns
	c.Transfers += after.Transfers - before.Transfers
	c.PkeyMprotects += after.PkeyMprotects - before.PkeyMprotects
	c.PTWalks += after.PTWalks - before.PTWalks
	c.Faults += after.Faults - before.Faults
	c.RingBatches += after.RingBatches - before.RingBatches
	c.RingEntries += after.RingEntries - before.RingEntries
}

// Snapshot returns a copy of the counters.
func (c *Counters) Snapshot() CounterSnapshot { return *c }

// Reset zeroes every counter.
func (c *Counters) Reset() { *c = Counters{} }

// String renders the counters as a single diagnostic line.
func (s Counters) String() string {
	return fmt.Sprintf(
		"switches=%d wrpkru=%d vmexits=%d guestsys=%d syscalls=%d bpf=%d transfers=%d pkeymprot=%d ptwalks=%d faults=%d ringbatches=%d ringentries=%d",
		s.Switches, s.WRPKRUWrites, s.VMExits, s.GuestSyscalls,
		s.Syscalls, s.BPFRuns, s.Transfers, s.PkeyMprotects, s.PTWalks, s.Faults,
		s.RingBatches, s.RingEntries)
}
