package kernel

import (
	"encoding/binary"
	"errors"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/obs"
	"github.com/litterbox-project/enclosure/internal/seccomp"
	"github.com/litterbox-project/enclosure/internal/simfs"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// PkeyOps is implemented by the simulated MPK unit; the kernel routes the
// pkey_* system calls to it. When absent (no MPK hardware configured)
// those calls fail with ENOSYS, as on a pre-Skylake kernel.
type PkeyOps interface {
	PkeyAlloc() (int, Errno)
	PkeyFree(key int) Errno
	PkeyMprotect(base mem.Addr, size uint64, perm mem.Perm, key int) Errno
}

// Kernel is the trusted simulated operating system. One instance serves
// one simulated program. It owns the filesystem and network namespaces
// and, when LB_MPK installs one, evaluates a seccomp BPF filter —
// extended with the PKRU value — before dispatching each system call.
type Kernel struct {
	FS  *simfs.FS
	Net *simnet.Net

	clock *hw.Clock
	space *mem.AddressSpace

	// sched is the owning program's scheduler (nil outside a program).
	// The caller of a system call holds its run token (see
	// SetScheduler). Everything below is the program's own and is
	// touched only under it.
	sched simnet.Sched

	pkeys PkeyOps
	rng   uint64
	spans map[mem.Addr]*mem.Section
	nspan int
	// spanUndo is a clone's span-registry journal (nil on kernels not
	// made by Clone): each base mapped or unmapped since birth with the
	// span it replaced (nil when it had none). ResetTo replays it.
	spanUndo map[mem.Addr]*mem.Section
	// spanNames are a clone's names of the spans mapped since birth,
	// span-(birth+1) first: each tenant after a ResetTo maps under the
	// same names, so they are made once.
	spanNames []string
	spanBirth int

	// filter holds the installed policy in both compiled forms (nil
	// when none is). The pointee is immutable: installs swap the whole
	// state.
	filter *filterState

	// fastOff disables the verdict-table fast path (zero value = fast
	// path on whenever a table is installed); crossCheck additionally
	// runs the BPF interpreter on every fast-path verdict and counts
	// disagreements — the runtime differential oracle behind the fuzzed
	// one in internal/seccomp.
	fastOff      bool
	crossCheck   bool
	divergences  int64
	fastVerdicts int64

	// ringCrossCheck mirrors crossCheck for the batched ring drain: every
	// verdict the batch loop takes from the table is re-derived by the BPF
	// interpreter, which stays authoritative. Kept separate so a ring-on
	// sweep can cross-check batches without also slowing the sequential
	// path.
	ringCrossCheck  bool
	ringDivergences int64

	// trace is installed only while a tracer is attached, so an untraced
	// system call pays one nil check for it.
	trace TraceSource
	// While a tracer is attached, a network wait goes through a
	// tracedWait from waits (a free list), and the call's parked time
	// is left in parked for emitSyscall to subtract.
	waits  []*tracedWait
	parked int64
}

// tracedWait is the scheduler as one traced system call's network
// waits see it: it sums, in parked, how far the waiting CPU's clock
// advanced over each Block, the virtual time siblings charged to that
// clock meanwhile.
type tracedWait struct {
	simnet.Sched
	clock  *hw.Clock
	parked int64
}

func (w *tracedWait) Block(sw simnet.Waiter) {
	from := w.clock.Now()
	w.Sched.Block(sw)
	w.parked += w.clock.Now() - from
}

// io returns the flags of a network call on cpu: its scheduler (nil
// outside a program), or, while a tracer is attached, a tracedWait over
// it. The caller hands them back to endWait once the call is over.
func (k *Kernel) io(cpu *hw.CPU, nonblock bool) simnet.IOFlags {
	if k.sched == nil || k.trace == nil {
		return simnet.IOFlags{Nonblock: nonblock, Sched: k.sched}
	}
	var w *tracedWait
	if n := len(k.waits); n > 0 {
		w, k.waits = k.waits[n-1], k.waits[:n-1]
	} else {
		w = &tracedWait{}
	}
	w.Sched, w.clock, w.parked = k.sched, cpu.Clock, 0
	return simnet.IOFlags{Nonblock: nonblock, Sched: w}
}

// endWait records a traced call's parked time for its event and
// returns its tracedWait to the free list.
func (k *Kernel) endWait(f simnet.IOFlags) {
	if w, ok := f.Sched.(*tracedWait); ok {
		k.parked += w.parked
		w.Sched, w.clock = nil, nil
		k.waits = append(k.waits, w)
	}
}

// filterState pairs the reference BPF program with its O(1) verdict
// table (nil when the filter was installed interpreter-only).
type filterState struct {
	prog  *seccomp.Program
	table *seccomp.VerdictTable
}

// TraceSource resolves the tracer and attribution for one dispatched
// system call: the active obs.Trace (nil disables tracing), the
// enforcement backend's name, and the worker the cpu is bound to.
// LitterBox installs one while a tracer is attached so the kernel can
// stamp every syscall event with context only the enforcement layer
// knows.
type TraceSource func(cpu *hw.CPU) (*obs.Trace, string, string)

// SetTraceSource installs (or, with nil, clears) the syscall event
// tracer hook.
func (k *Kernel) SetTraceSource(src TraceSource) { k.trace = src }

// emitSyscall records one dispatched syscall: number, name, caller
// package (from the CPU's attribution field, "runtime" when unset),
// the filter verdict, and the virtual time the call charged. A call
// that waited on the network leaves out what siblings charged to its
// clock while it waited without the run token. Host-side only — it
// never advances the clock.
func (k *Kernel) emitSyscall(cpu *hw.CPU, nr Nr, errno Errno, verdict string, start int64) {
	parked := k.parked
	k.parked = 0
	if k.trace == nil {
		return
	}
	tr, backend, worker := k.trace(cpu)
	if tr == nil {
		return
	}
	pkg := cpu.Pkg
	if pkg == "" {
		pkg = "runtime"
	}
	detail := ""
	if errno != OK {
		detail = errno.Error()
	}
	now := cpu.Clock.Now()
	tr.Emit(obs.Event{
		At: now, Kind: obs.KindSyscall, Backend: backend, Worker: worker,
		Pkg: pkg, Sys: nr.Name(), Sysno: uint32(nr), Verdict: verdict,
		Cost: now - start - parked, Detail: detail,
	})
}

// New returns a kernel over the given address space and clock with fresh
// filesystem and network namespaces.
func New(space *mem.AddressSpace, clock *hw.Clock) *Kernel {
	return &Kernel{
		FS:    simfs.New(),
		Net:   simnet.New(),
		clock: clock,
		space: space,
		rng:   0x9E3779B97F4A7C15,
		spans: make(map[mem.Addr]*mem.Section),
	}
}

// SetSeccompFilter installs (or clears) the BPF system-call filter in
// interpreter-only form; every verdict runs Program.Run.
func (k *Kernel) SetSeccompFilter(p *seccomp.Program) {
	if p == nil {
		k.filter = nil
		return
	}
	k.filter = &filterState{prog: p}
}

// SetCompiledFilter installs both artifact forms of a filter: the BPF
// program stays the reference, the verdict table answers the hot path
// in O(1) unless SetFastPath(false) forces interpretation.
func (k *Kernel) SetCompiledFilter(art *seccomp.Artifacts) {
	if art == nil {
		k.filter = nil
		return
	}
	k.filter = &filterState{prog: art.Prog, table: art.Table}
}

// SetFastPath enables or disables verdict-table dispatch. The virtual
// cost model is unaffected either way (CostBPFFilter is charged per
// filtered call regardless): the toggle only selects which host-side
// mechanism computes the verdict, so differential runs can compare the
// two paths bit-for-bit.
func (k *Kernel) SetFastPath(enabled bool) { k.fastOff = !enabled }

// SetCrossCheck makes every fast-path verdict also run the BPF
// interpreter; disagreements are counted (and the interpreter, being
// the reference, wins).
func (k *Kernel) SetCrossCheck(enabled bool) { k.crossCheck = enabled }

// FilterDivergences returns how many cross-checked verdicts disagreed
// with the reference interpreter (must stay zero).
func (k *Kernel) FilterDivergences() int64 { return k.divergences }

// FastVerdicts returns how many verdicts the table answered.
func (k *Kernel) FastVerdicts() int64 { return k.fastVerdicts }

// SetRingCrossCheck makes every batched-ring verdict also run the BPF
// interpreter — the retained slow path — with disagreements counted and
// the interpreter's answer winning, exactly like SetCrossCheck does for
// the sequential path.
func (k *Kernel) SetRingCrossCheck(enabled bool) { k.ringCrossCheck = enabled }

// RingDivergences returns how many cross-checked ring verdicts disagreed
// with the reference interpreter (must stay zero).
func (k *Kernel) RingDivergences() int64 { return k.ringDivergences }

// SetPkeyOps wires in the MPK unit's key management.
func (k *Kernel) SetPkeyOps(ops PkeyOps) { k.pkeys = ops }

// SetScheduler hands the kernel its program's scheduler. Every system
// call arrives holding the program's run token. Accept on an empty
// backlog, recv on an empty socket and send into a full one wait
// through s, so the sibling that will wake the caller can run; the
// copy to or from user memory never waits. A send, recv or connect
// readies the program's tasks it wakes in the program's order. Call it
// before the program runs.
func (k *Kernel) SetScheduler(s simnet.Sched) { k.sched = s }

// HeapOwner is the pseudo-package owning freshly mmap-ed spans until the
// runtime Transfers them into a real package's arena.
const HeapOwner = "runtime/heap"

// Proc is the single simulated process of a program: identity plus a
// file-descriptor table shared by all its simulated goroutines.
type Proc struct {
	k      *Kernel
	UID    uint32
	PID    uint32
	HostIP uint32

	fds      map[int]*fdEntry
	nextFD   int
	exited   bool
	code     int
	nonBlock bool
}

// SetNonBlocking switches the process's descriptor I/O between the
// default blocking semantics and O_NONBLOCK-style semantics, where a
// read, recv, or accept that would have to wait returns EAGAIN instead.
// Single-threaded harnesses (the adversarial probe engine) run their
// processes non-blocking so no generated trace can wedge the sweep on a
// data-less pipe or an empty accept backlog.
func (p *Proc) SetNonBlocking(v bool) { p.nonBlock = v }

type fdEntry struct {
	file *simfs.File
	conn *simnet.Conn
	ln   *simnet.Listener
	sock *sockState
}

type sockState struct {
	bound simnet.Addr
	has   bool
}

// NewProc creates the program's process with the given identity.
func (k *Kernel) NewProc(uid, pid, hostIP uint32) *Proc {
	return &Proc{k: k, UID: uid, PID: pid, HostIP: hostIP, fds: make(map[int]*fdEntry), nextFD: 3}
}

func (p *Proc) allocFD(e *fdEntry) int {
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = e
	return fd
}

func (p *Proc) lookupFD(fd int) (*fdEntry, Errno) {
	e, ok := p.fds[fd]
	if !ok {
		return nil, EBADF
	}
	return e, OK
}

func (p *Proc) closeFD(fd int) Errno {
	e, ok := p.fds[fd]
	if !ok {
		return EBADF
	}
	delete(p.fds, fd)
	switch {
	case e.file != nil:
		_ = e.file.Close()
	case e.conn != nil:
		_ = e.conn.Close()
	case e.ln != nil:
		_ = e.ln.Close()
	}
	return OK
}

// InjectConn registers an already-established connection in the fd table
// (the §6.5 mitigation of passing a pre-allocated socket into an
// enclosure that may not create its own).
func (p *Proc) InjectConn(c *simnet.Conn) int {
	return p.allocFD(&fdEntry{conn: c})
}

// maxIO bounds single-call I/O, as real kernels bound with RLIMIT-ish caps.
const maxIO = 1 << 20

// Invoke executes one system call on behalf of proc. The cpu supplies the
// PKRU value the installed seccomp filter indexes and is charged the
// baseline syscall cost on *its own* clock — under the multi-core engine
// each worker CPU accrues only the time its core actually spends in the
// kernel; in single-core programs the CPU clock is the program clock, so
// billing is unchanged.
func (k *Kernel) Invoke(p *Proc, cpu *hw.CPU, nr Nr, args [6]uint64) (uint64, Errno) {
	start := cpu.Clock.Now()
	cpu.Clock.Advance(hw.CostSyscall)
	cpu.Counters.Syscalls++

	if fs := k.filter; fs != nil {
		// The virtual machine still pays the filter tax per call — the
		// verdict table changes which host mechanism computes the
		// verdict, not what the simulated hardware charges.
		cpu.Clock.Advance(hw.CostBPFFilter)
		cpu.Counters.BPFRuns++
		d := &seccomp.Data{
			Nr:   uint32(nr),
			Arch: seccomp.AuditArchSim,
			Args: args,
			PKRU: uint32(cpu.PeekPKRU()),
		}
		verdict, err := k.runFilter(fs, d, k.crossCheck, &k.divergences)
		if err != nil {
			return 0, EINVAL
		}
		if seccomp.ActionOf(verdict) != seccomp.RetAllow {
			// The enforcement layer reports the denial (it knows whether
			// this is a fault or an audited violation).
			return 0, ESECCOMP
		}
	}
	if e, ok := injectedErrno(cpu); ok {
		k.emitSyscall(cpu, nr, e, obs.VerdictAllow, start)
		return 0, e
	}
	ret, errno := k.dispatch(p, cpu, nr, args)
	k.emitSyscall(cpu, nr, errno, obs.VerdictAllow, start)
	return ret, errno
}

// runFilter computes the installed filter's verdict for d: one verdict
// table load when the fast path is live, the BPF interpreter otherwise.
// Under cross-check mode both run, a disagreement is counted in
// divergences, and the interpreter's answer is authoritative. The
// sequential path and the batch drain pass their own toggle and
// counter, so a ring-on sweep can cross-check batches alone.
func (k *Kernel) runFilter(fs *filterState, d *seccomp.Data, crossCheck bool, divergences *int64) (uint32, error) {
	if fs.table == nil || k.fastOff {
		return fs.prog.Run(d)
	}
	v := fs.table.Verdict(d)
	k.fastVerdicts++
	if crossCheck && fs.prog != nil {
		ref, err := fs.prog.Run(d)
		if err != nil {
			return 0, err
		}
		if ref != v {
			*divergences++
			return ref, nil
		}
	}
	return v, nil
}

// InvokeUnfiltered executes a system call bypassing the BPF filter — the
// LB_VTX host side, which filters in the guest kernel before the
// hypercall (§5.3), and trusted runtime paths use this entry point.
func (k *Kernel) InvokeUnfiltered(p *Proc, cpu *hw.CPU, nr Nr, args [6]uint64) (uint64, Errno) {
	start := cpu.Clock.Now()
	cpu.Clock.Advance(hw.CostSyscall)
	cpu.Counters.Syscalls++
	if e, ok := injectedErrno(cpu); ok {
		k.emitSyscall(cpu, nr, e, obs.VerdictAllow, start)
		return 0, e
	}
	ret, errno := k.dispatch(p, cpu, nr, args)
	k.emitSyscall(cpu, nr, errno, obs.VerdictAllow, start)
	return ret, errno
}

// RingTrap charges the single virtual trap a drained submission batch
// costs: one kernel entry for the whole batch instead of one per call.
// The per-entry work (filter verdict, dispatch, CQE bookkeeping) is
// charged by InvokeRing as the drain loop walks the batch.
func (k *Kernel) RingTrap(cpu *hw.CPU) {
	cpu.Clock.Advance(hw.CostSyscall)
	cpu.Counters.RingBatches++
}

// InvokeRing dispatches one entry of a drained submission batch. It is
// Invoke minus the per-call trap — RingTrap already charged the batch's
// single kernel entry — plus the per-entry SQE/CQE bookkeeping cost.
// filtered selects whether the installed seccomp filter gates the entry
// (LB_MPK batches; false for backends that filter in the enforcement
// layer and for trusted runtime entries). A filtered denial returns
// ESECCOMP exactly like Invoke; the enforcement layer decides whether
// that faults, audits, and what happens to the rest of the batch.
func (k *Kernel) InvokeRing(p *Proc, cpu *hw.CPU, filtered bool, nr Nr, args [6]uint64) (uint64, Errno) {
	start := cpu.Clock.Now()
	cpu.Clock.Advance(hw.CostRingEntry)
	cpu.Counters.Syscalls++
	cpu.Counters.RingEntries++
	if filtered {
		if fs := k.filter; fs != nil {
			// One verdict-table lookup per entry: the whole batch runs
			// under one filter pass, but each entry still pays the
			// (table-sized, not program-sized) verdict tax.
			cpu.Clock.Advance(hw.CostBPFFilter)
			cpu.Counters.BPFRuns++
			d := &seccomp.Data{
				Nr:   uint32(nr),
				Arch: seccomp.AuditArchSim,
				Args: args,
				PKRU: uint32(cpu.PeekPKRU()),
			}
			verdict, err := k.runFilter(fs, d, k.ringCrossCheck, &k.ringDivergences)
			if err != nil {
				return 0, EINVAL
			}
			if seccomp.ActionOf(verdict) != seccomp.RetAllow {
				return 0, ESECCOMP
			}
		}
	}
	if e, ok := injectedErrno(cpu); ok {
		k.emitSyscall(cpu, nr, e, obs.VerdictAllow, start)
		return 0, e
	}
	ret, errno := k.dispatch(p, cpu, nr, args)
	k.emitSyscall(cpu, nr, errno, obs.VerdictAllow, start)
	return ret, errno
}

// injectedErrno consults the CPU's fault injector (internal/hw) after
// the filter decided but before the handler runs: an armed transient
// errno replaces the dispatch, the way a real kernel's fault-injection
// framework (failslab, fail_make_request) turns one call into an error
// without touching kernel state.
func injectedErrno(cpu *hw.CPU) (Errno, bool) {
	if cpu.Inj == nil {
		return OK, false
	}
	e, ok := cpu.Inj.SyscallErrno()
	return Errno(e), ok
}

func (k *Kernel) dispatch(p *Proc, cpu *hw.CPU, nr Nr, args [6]uint64) (uint64, Errno) {
	switch nr {
	case NrRead:
		return k.sysRead(p, cpu, int(args[0]), mem.Addr(args[1]), args[2])
	case NrWrite:
		return k.sysWrite(p, cpu, int(args[0]), mem.Addr(args[1]), args[2])
	case NrClose:
		return 0, p.closeFD(int(args[0]))
	case NrOpen:
		return k.sysOpen(p, mem.Addr(args[0]), args[1], int(args[2]))
	case NrUnlink:
		return k.sysUnlink(p, mem.Addr(args[0]), args[1])
	case NrMkdir:
		return k.sysMkdir(p, mem.Addr(args[0]), args[1])
	case NrReadDir:
		return k.sysReadDir(p, mem.Addr(args[0]), args[1], mem.Addr(args[2]), args[3])
	case NrStat:
		return k.sysStat(p, mem.Addr(args[0]), args[1])
	case NrSocket:
		return uint64(p.allocFD(&fdEntry{sock: &sockState{}})), OK
	case NrBind:
		return k.sysBind(p, int(args[0]), uint32(args[1]), uint16(args[2]))
	case NrListen:
		return k.sysListen(p, int(args[0]))
	case NrAccept:
		return k.sysAccept(p, cpu, int(args[0]))
	case NrConnect:
		return k.sysConnect(p, int(args[0]), uint32(args[1]), uint16(args[2]))
	case NrShutdown:
		return 0, p.closeFD(int(args[0]))
	case NrSend:
		return k.sysWrite(p, cpu, int(args[0]), mem.Addr(args[1]), args[2])
	case NrRecv:
		return k.sysRead(p, cpu, int(args[0]), mem.Addr(args[1]), args[2])
	case NrMmap:
		return k.sysMmap(args[0])
	case NrMunmap:
		return k.sysMunmap(mem.Addr(args[0]))
	case NrMprotect:
		return 0, OK // section default perms are fixed in this model
	case NrPkeyAlloc:
		if k.pkeys == nil {
			return 0, ENOSYS
		}
		key, errno := k.pkeys.PkeyAlloc()
		return uint64(key), errno
	case NrPkeyFree:
		if k.pkeys == nil {
			return 0, ENOSYS
		}
		return 0, k.pkeys.PkeyFree(int(args[0]))
	case NrPkeyMprotect:
		if k.pkeys == nil {
			return 0, ENOSYS
		}
		return 0, k.pkeys.PkeyMprotect(mem.Addr(args[0]), args[1], mem.Perm(args[2]), int(args[3]))
	case NrGetuid:
		return uint64(p.UID), OK
	case NrGetpid:
		return uint64(p.PID), OK
	case NrExit:
		p.exited, p.code = true, int(args[0])
		return 0, OK
	case NrKill:
		return 0, EPERM // single-process world: nothing to signal
	case NrGetrandom:
		return k.sysGetrandom(mem.Addr(args[0]), args[1])
	case NrClockGettime:
		// CLOCK_MONOTONIC is per-core here: each worker CPU reads the
		// virtual time its own core has accrued.
		var ts [8]byte
		binary.LittleEndian.PutUint64(ts[:], uint64(cpu.Clock.Now()))
		if err := k.copyOut(mem.Addr(args[0]), ts[:]); err != nil {
			return 0, EFAULT
		}
		return 0, OK
	case NrNanosleep:
		cpu.Clock.Advance(int64(args[0]))
		return 0, OK
	case NrFutex:
		return 0, OK // cooperative simulation: wakeups are immediate
	case NrSeccomp:
		return 0, ENOSYS // filters are installed via SetSeccompFilter
	case NrLseek:
		return k.sysLseek(p, int(args[0]), int64(args[1]), int(args[2]))
	case NrDup:
		return k.sysDup(p, int(args[0]))
	case NrPipe:
		// Returns the two descriptors packed as read<<32 | write.
		r, w := simnet.Pair()
		rfd := p.allocFD(&fdEntry{conn: r})
		wfd := p.allocFD(&fdEntry{conn: w})
		return uint64(rfd)<<32 | uint64(wfd), OK
	default:
		return 0, ENOSYS
	}
}

// copyIn copies len(dst) user bytes starting at src into the kernel
// buffer dst, and copyOut copies the kernel bytes src to user memory
// at dst. They are the one place user bytes cross the kernel boundary:
// every handler that dereferences a user buffer goes through them, in
// pieces no larger than a stream block or a stack chunk, so no handler
// allocates a staging copy. Both fault on unmapped pages and check no
// permissions yet; a per-view check of the calling environment belongs
// here and nowhere else. Callers may hold a stream's lock.
func (k *Kernel) copyIn(dst []byte, src mem.Addr) error { return k.space.ReadAt(src, dst) }

func (k *Kernel) copyOut(dst mem.Addr, src []byte) error { return k.space.WriteAt(dst, src) }

// chunkSize bounds the stack buffer that file reads and writes,
// getrandom and readdir stage user bytes through.
const chunkSize = 512

func (k *Kernel) readPath(addr mem.Addr, n uint64) (string, Errno) {
	if n == 0 || n > 4096 {
		return "", EINVAL
	}
	buf := make([]byte, n)
	if err := k.copyIn(buf, addr); err != nil {
		return "", EFAULT
	}
	return string(buf), OK
}

// sysRead copies up to n bytes from fd to the user buffer. A read whose
// first piece faults returns EFAULT and consumes nothing: the bytes
// stay readable, as with Linux recv. A fault after the first piece
// ends the read short.
func (k *Kernel) sysRead(p *Proc, cpu *hw.CPU, fd int, buf mem.Addr, n uint64) (uint64, Errno) {
	if n > maxIO {
		n = maxIO
	}
	e, errno := p.lookupFD(fd)
	if errno != OK {
		return 0, errno
	}
	switch {
	case e.file != nil:
		return k.readFile(e.file, buf, n)
	case e.conn != nil:
		f := k.io(cpu, p.nonBlock)
		got, err := e.conn.ReadTo(int(n), f, func(src []byte, off int) error {
			return k.copyOut(buf+mem.Addr(off), src)
		})
		k.endWait(f)
		switch {
		case err == nil || got > 0:
			return uint64(got), OK
		case errors.Is(err, simnet.ErrWouldBlock):
			return 0, EAGAIN
		case errors.Is(err, simnet.ErrClosed):
			return 0, OK // closed stream reads as EOF
		default:
			return 0, EFAULT
		}
	default:
		return 0, EBADF
	}
}

// readFile is sysRead for a file, staged through a stack chunk. A
// chunk that faults is handed back to the file cursor.
func (k *Kernel) readFile(f *simfs.File, buf mem.Addr, n uint64) (uint64, Errno) {
	var chunk [chunkSize]byte
	var done uint64
	for {
		want := min(n-done, chunkSize)
		got, err := f.Read(chunk[:want])
		if err != nil {
			if done == 0 && !simfs.IsEOF(err) {
				return 0, EBADF
			}
			return done, OK // POSIX: read at EOF returns 0
		}
		if k.copyOut(buf+mem.Addr(done), chunk[:got]) != nil {
			_, _ = f.Seek(-int64(got), simfs.SeekCur)
			if done == 0 {
				return 0, EFAULT
			}
			return done, OK
		}
		done += uint64(got)
		if done == n || uint64(got) < want {
			return done, OK
		}
	}
}

// sysWrite copies n bytes from the user buffer to fd. A source that is
// not fully mapped returns EFAULT before the first byte, so a faulting
// write delivers nothing.
func (k *Kernel) sysWrite(p *Proc, cpu *hw.CPU, fd int, buf mem.Addr, n uint64) (uint64, Errno) {
	if n > maxIO {
		n = maxIO
	}
	e, errno := p.lookupFD(fd)
	if errno != OK {
		return 0, errno
	}
	if !k.space.Mapped(buf, n) {
		return 0, EFAULT
	}
	switch {
	case e.file != nil:
		return k.writeFile(e.file, buf, n)
	case e.conn != nil:
		f := k.io(cpu, false)
		wrote, err := e.conn.WriteFrom(int(n), f, func(dst []byte, off int) error {
			return k.copyIn(dst, buf+mem.Addr(off))
		})
		k.endWait(f)
		switch {
		case errors.Is(err, simnet.ErrClosed):
			return uint64(wrote), EBADF
		case err == nil || wrote > 0:
			return uint64(wrote), OK
		default:
			return 0, EFAULT
		}
	default:
		return 0, EBADF
	}
}

// writeFile is sysWrite for a file, staged through a stack chunk.
func (k *Kernel) writeFile(f *simfs.File, buf mem.Addr, n uint64) (uint64, Errno) {
	var chunk [chunkSize]byte
	var done uint64
	for {
		m := min(n-done, chunkSize)
		if k.copyIn(chunk[:m], buf+mem.Addr(done)) != nil {
			return done, EFAULT
		}
		wrote, err := f.Write(chunk[:m])
		done += uint64(wrote)
		if err != nil {
			return done, EBADF
		}
		if done == n {
			return done, OK
		}
	}
}

func (k *Kernel) sysOpen(p *Proc, pathAddr mem.Addr, pathLen uint64, flags int) (uint64, Errno) {
	path, errno := k.readPath(pathAddr, pathLen)
	if errno != OK {
		return 0, errno
	}
	f, err := k.FS.Open(path, flags)
	if err != nil {
		return 0, fsErrno(err)
	}
	return uint64(p.allocFD(&fdEntry{file: f})), OK
}

func (k *Kernel) sysUnlink(p *Proc, pathAddr mem.Addr, pathLen uint64) (uint64, Errno) {
	path, errno := k.readPath(pathAddr, pathLen)
	if errno != OK {
		return 0, errno
	}
	if err := k.FS.Remove(path); err != nil {
		return 0, fsErrno(err)
	}
	return 0, OK
}

func (k *Kernel) sysMkdir(p *Proc, pathAddr mem.Addr, pathLen uint64) (uint64, Errno) {
	path, errno := k.readPath(pathAddr, pathLen)
	if errno != OK {
		return 0, errno
	}
	if err := k.FS.MkdirAll(path); err != nil {
		return 0, fsErrno(err)
	}
	return 0, OK
}

func (k *Kernel) sysReadDir(p *Proc, pathAddr mem.Addr, pathLen uint64, buf mem.Addr, bufLen uint64) (uint64, Errno) {
	path, errno := k.readPath(pathAddr, pathLen)
	if errno != OK {
		return 0, errno
	}
	names, err := k.FS.ReadDir(path)
	if err != nil {
		return 0, fsErrno(err)
	}
	// The newline-joined listing, truncated to bufLen, leaves through a
	// stack chunk.
	var chunk [chunkSize]byte
	var done, fill uint64
	flush := func() bool {
		if fill == 0 {
			return true
		}
		ok := k.copyOut(buf+mem.Addr(done), chunk[:fill]) == nil
		done, fill = done+fill, 0
		return ok
	}
	put := func(s string) bool {
		for len(s) > 0 && done+fill < bufLen {
			if fill == chunkSize && !flush() {
				return false
			}
			m := copy(chunk[fill:min(chunkSize, bufLen-done)], s)
			fill += uint64(m)
			s = s[m:]
		}
		return true
	}
	for i, n := range names {
		if i > 0 && !put("\n") || !put(n) {
			return 0, EFAULT
		}
	}
	if !flush() {
		return 0, EFAULT
	}
	return done, OK
}

func (k *Kernel) sysStat(p *Proc, pathAddr mem.Addr, pathLen uint64) (uint64, Errno) {
	path, errno := k.readPath(pathAddr, pathLen)
	if errno != OK {
		return 0, errno
	}
	data, err := k.FS.ReadFile(path)
	if err != nil {
		return 0, fsErrno(err)
	}
	return uint64(len(data)), OK
}

func (k *Kernel) sysBind(p *Proc, fd int, host uint32, port uint16) (uint64, Errno) {
	e, errno := p.lookupFD(fd)
	if errno != OK {
		return 0, errno
	}
	if e.sock == nil {
		return 0, ENOTSOCK
	}
	e.sock.bound = simnet.Addr{Host: host, Port: port}
	e.sock.has = true
	return 0, OK
}

func (k *Kernel) sysListen(p *Proc, fd int) (uint64, Errno) {
	e, errno := p.lookupFD(fd)
	if errno != OK {
		return 0, errno
	}
	if e.sock == nil || !e.sock.has {
		return 0, ENOTSOCK
	}
	l, err := k.Net.Listen(e.sock.bound)
	if err != nil {
		return 0, EADDRINUSE
	}
	e.ln = l
	return 0, OK
}

func (k *Kernel) sysAccept(p *Proc, cpu *hw.CPU, fd int) (uint64, Errno) {
	e, errno := p.lookupFD(fd)
	if errno != OK {
		return 0, errno
	}
	if e.ln == nil {
		return 0, ENOTSOCK
	}
	f := k.io(cpu, p.nonBlock)
	c, err := e.ln.AcceptFlags(f)
	k.endWait(f)
	if err == simnet.ErrWouldBlock {
		return 0, EAGAIN
	}
	if err != nil {
		return 0, EBADF
	}
	return uint64(p.allocFD(&fdEntry{conn: c})), OK
}

func (k *Kernel) sysConnect(p *Proc, fd int, host uint32, port uint16) (uint64, Errno) {
	e, errno := p.lookupFD(fd)
	if errno != OK {
		return 0, errno
	}
	if e.sock == nil {
		return 0, ENOTSOCK
	}
	c, err := k.Net.DialFlags(p.HostIP, simnet.Addr{Host: host, Port: port}, simnet.IOFlags{Sched: k.sched})
	if err != nil {
		return 0, ECONNREFUSED
	}
	e.conn = c
	e.sock = nil
	return 0, OK
}

func (k *Kernel) sysMmap(size uint64) (uint64, Errno) {
	if size == 0 {
		return 0, EINVAL
	}
	s, err := k.space.Map(k.nextSpanName(), HeapOwner, mem.KindHeap, size, mem.PermR|mem.PermW)
	if err != nil {
		return 0, EFAULT
	}
	k.setSpan(s.Base, s)
	return uint64(s.Base), OK
}

func (k *Kernel) sysMunmap(base mem.Addr) (uint64, Errno) {
	s, ok := k.spans[base]
	if !ok {
		return 0, EINVAL
	}
	k.setSpan(base, nil)
	if err := k.space.Unmap(s); err != nil {
		return 0, EINVAL
	}
	return 0, OK
}

func (k *Kernel) sysLseek(p *Proc, fd int, offset int64, whence int) (uint64, Errno) {
	e, errno := p.lookupFD(fd)
	if errno != OK {
		return 0, errno
	}
	if e.file == nil {
		return 0, EINVAL // seeking sockets is ESPIPE territory
	}
	pos, err := e.file.Seek(offset, whence)
	if err != nil {
		return 0, EINVAL
	}
	return uint64(pos), OK
}

// sysDup duplicates a descriptor; both share the underlying object (and
// for files, the cursor — as dup(2) does).
func (k *Kernel) sysDup(p *Proc, fd int) (uint64, Errno) {
	e, errno := p.lookupFD(fd)
	if errno != OK {
		return 0, errno
	}
	dup := *e
	return uint64(p.allocFD(&dup)), OK
}

// sysGetrandom fills the user buffer from the kernel's generator. A
// faulting buffer still advances the generator by n bytes.
func (k *Kernel) sysGetrandom(buf mem.Addr, n uint64) (uint64, Errno) {
	if n > maxIO {
		n = maxIO
	}
	var chunk [chunkSize]byte
	errno := OK
	x := k.rng
	for done := uint64(0); done < n; {
		m := min(n-done, chunkSize)
		for i := range chunk[:m] {
			// xorshift64*: deterministic, good enough for a simulated kernel.
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			chunk[i] = byte((x * 0x2545F4914F6CDD1D) >> 56)
		}
		if errno == OK && k.copyOut(buf+mem.Addr(done), chunk[:m]) != nil {
			errno = EFAULT
		}
		done += m
	}
	k.rng = x
	if errno != OK {
		return 0, errno
	}
	return n, OK
}

// setSpan registers s at base (nil unregisters), journaling the first
// change of each base on a clone.
func (k *Kernel) setSpan(base mem.Addr, s *mem.Section) {
	if k.spanUndo != nil {
		if _, seen := k.spanUndo[base]; !seen {
			k.spanUndo[base] = k.spans[base]
		}
	}
	if s == nil {
		delete(k.spans, base)
	} else {
		k.spans[base] = s
	}
}

// SpanSection returns the still-mapped span starting at base, if any.
func (k *Kernel) SpanSection(base mem.Addr) *mem.Section { return k.spans[base] }

// nextSpanName advances the span cursor and returns the new span's
// name, from spanNames on a clone.
func (k *Kernel) nextSpanName() string {
	k.nspan++
	if k.spanUndo == nil {
		return spanName(k.nspan)
	}
	i := k.nspan - k.spanBirth - 1
	if i >= len(k.spanNames) {
		k.spanNames = append(k.spanNames, spanName(k.nspan))
	}
	return k.spanNames[i]
}

func spanName(i int) string {
	// fmt.Sprintf would be fine; this is on the allocation path, so keep
	// it allocation-light.
	buf := [24]byte{'s', 'p', 'a', 'n', '-'}
	n := 5
	if i == 0 {
		buf[n] = '0'
		n++
	} else {
		start := n
		for i > 0 {
			buf[n] = byte('0' + i%10)
			i /= 10
			n++
		}
		for l, r := start, n-1; l < r; l, r = l+1, r-1 {
			buf[l], buf[r] = buf[r], buf[l]
		}
	}
	return string(buf[:n])
}

func fsErrno(err error) Errno {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, simfs.ErrNotExist):
		return ENOENT
	case errors.Is(err, simfs.ErrExist):
		return EEXIST
	case errors.Is(err, simfs.ErrIsDir):
		return EISDIR
	case errors.Is(err, simfs.ErrNotDir):
		return ENOTDIR
	case errors.Is(err, simfs.ErrBadFlags):
		return EINVAL
	default:
		return EACCES
	}
}
