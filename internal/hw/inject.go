package hw

// Injector scripts transient hardware and kernel misbehaviour into one
// CPU's execution: a bit-flip in the PKRU register mid-switch, a
// spurious errno out of the kernel, an interrupted arena transfer. The
// probe engine (internal/probe) arms one identically on every backend's
// CPU and checks that faults stay contained to the faulting environment
// and surface as clean protection faults — never hangs, panics, or
// silent corruption.
//
// All arms are counted one-shots: ArmX(n, ...) fires on the n-th
// subsequent occurrence of X (1-based) and then disarms. Counting makes
// injections deterministic for a fixed trace, which the differential
// oracle and the shrinking reproducer both depend on. An injector
// belongs to its CPU and is used, like the CPU, under its program's run
// token.
type Injector struct {
	// PKRU corruption: on the n-th WritePKRU, the stored value is XORed
	// with flip — a transient bit error in the register write path.
	pkruIn   int
	pkruFlip PKRU

	// Syscall errno: the n-th dispatched (post-filter) system call
	// returns this errno instead of executing.
	errnoIn int
	errno   uint32

	// Transfer interruption: the n-th arena transfer fails partway
	// through the backend's per-environment update loop.
	transferIn int

	fired InjectStats
}

// InjectStats tallies injections that actually fired (the name avoids
// colliding with the CPU's architectural Counters).
type InjectStats struct {
	PKRUFlips      int
	SyscallErrnos  int
	TransferFaults int
}

// NewInjector returns a disarmed injector.
func NewInjector() *Injector { return &Injector{} }

// ArmPKRUCorrupt fires on the n-th subsequent WritePKRU (n >= 1),
// XORing the written value with flip.
func (in *Injector) ArmPKRUCorrupt(n int, flip PKRU) { in.pkruIn, in.pkruFlip = n, flip }

// ArmSyscallErrno fires on the n-th subsequent dispatched system call
// (n >= 1), which returns errno without reaching its handler.
func (in *Injector) ArmSyscallErrno(n int, errno uint32) { in.errnoIn, in.errno = n, errno }

// ArmTransferFault fires on the n-th subsequent arena transfer (n >= 1).
func (in *Injector) ArmTransferFault(n int) { in.transferIn = n }

// fire counts one occurrence against an arm's countdown and reports
// whether it was the armed one, which leaves the arm at 0, disarmed.
func fire(countdown *int) bool {
	if *countdown == 0 {
		return false
	}
	*countdown--
	return *countdown == 0
}

// corruptPKRU is consulted by CPU.WritePKRU: it returns the value the
// register actually receives.
func (in *Injector) corruptPKRU(v PKRU) PKRU {
	if !fire(&in.pkruIn) {
		return v
	}
	in.fired.PKRUFlips++
	return v ^ in.pkruFlip
}

// SyscallErrno is consulted by the kernel after the filter but before
// dispatch: when it fires, the call returns the armed errno.
func (in *Injector) SyscallErrno() (uint32, bool) {
	if !fire(&in.errnoIn) {
		return 0, false
	}
	in.fired.SyscallErrnos++
	return in.errno, true
}

// TransferFault is consulted once per backend Transfer call; when it
// fires the transfer must fail (partway through, where the backend
// updates multiple environments).
func (in *Injector) TransferFault() bool {
	if !fire(&in.transferIn) {
		return false
	}
	in.fired.TransferFaults++
	return true
}

// Fired returns how many injections of each kind have actually fired.
func (in *Injector) Fired() InjectStats { return in.fired }
