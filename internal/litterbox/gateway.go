package litterbox

import (
	"fmt"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/obs"
	"github.com/litterbox-project/enclosure/internal/ring"
)

// SyscallReq describes one system call presented to the gateway: the
// call itself, the calling package for event attribution, and whether
// the call is issued on behalf of the language runtime (scheduler
// wakeups, deadline clock reads, entropy) — runtime calls briefly
// switch to the trusted environment via Execute, exactly the mechanism
// §5.1 describes for the scheduler and garbage collector, and dispatch
// there unfiltered.
type SyscallReq struct {
	Nr        kernel.Nr
	Args      [6]uint64
	CallerPkg string
	Runtime   bool
}

// SyscallGateway is the single syscall entry point: every sequential
// call path and the ring drain's reference arm go through it. A
// rejected call faults and aborts the program (§4.2); in audit mode a
// filtered call is recorded as a violation and then dispatched anyway
// (bypassing the filter the way SECCOMP_RET_LOG logs instead of
// trapping), so the run proceeds and the recorder learns what the
// policy must grant.
func (lb *LitterBox) SyscallGateway(cpu *hw.CPU, env *Env, req SyscallReq) (uint64, kernel.Errno, error) {
	st := lb.stateFor(cpu)
	if _, dead := lb.abortedIn(st); dead {
		return 0, kernel.ESECCOMP, ErrAborted
	}
	p := lb.procOf(st)
	if req.Runtime {
		if err := lb.Execute(cpu, env, lb.trusted); err != nil {
			return 0, kernel.ESECCOMP, err
		}
		ret, errno := lb.backend.Syscall(cpu, p, lb.trusted, req.Nr, req.Args)
		if err := lb.Execute(cpu, lb.trusted, env); err != nil {
			return 0, kernel.ESECCOMP, err
		}
		return ret, errno, nil
	}
	if req.CallerPkg != "" {
		cpu.Pkg = req.CallerPkg
	}
	// Record usage whether or not the filter would allow it: the
	// derived SysFilter must cover the workload's full footprint.
	lb.recordSysAttempt(env, req.Nr, req.Args)
	ret, errno := lb.backend.Syscall(cpu, p, env, req.Nr, req.Args)
	if errno == kernel.ESECCOMP {
		if ret, errno, handled := lb.auditSyscall(cpu, p, env, req.CallerPkg, req.Nr, req.Args); handled {
			return ret, errno, nil
		}
		lb.emit(cpu, obs.Event{
			Kind: obs.KindSyscall, Env: envName(env), Pkg: req.CallerPkg,
			Sys: req.Nr.Name(), Sysno: uint32(req.Nr), Verdict: obs.VerdictDeny,
		})
		f := lb.RaiseFault(cpu, &Fault{Env: env, Op: "syscall", Note: req.Nr.Name()})
		return 0, errno, f
	}
	return ret, errno, nil
}

// recordSysAttempt records one syscall attempt into the audit recorder
// (a no-op outside audit mode or for trusted environments).
func (lb *LitterBox) recordSysAttempt(env *Env, nr kernel.Nr, args [6]uint64) {
	if lb.audit == nil || env == nil || env.Trusted {
		return
	}
	lb.audit.RecordSys(envName(env), kernel.CategoryOf(nr).String(), false)
	if nr == kernel.NrConnect {
		lb.audit.RecordConnect(envName(env), uint32(args[1]))
	}
}

// auditSyscall handles a filter denial in audit mode: record the
// violation, trace it, and dispatch the call anyway — directly, because
// the VTX and CHERI backends filter before reaching the kernel, so the
// uniform audit path re-enters it below the filter. handled is false
// when enforcing (the caller faults).
func (lb *LitterBox) auditSyscall(cpu *hw.CPU, p *kernel.Proc, env *Env, callerPkg string, nr kernel.Nr, args [6]uint64) (uint64, kernel.Errno, bool) {
	if lb.audit == nil || env == nil || env.Trusted {
		return 0, 0, false
	}
	lb.audit.RecordSys(envName(env), kernel.CategoryOf(nr).String(), true)
	lb.emit(cpu, obs.Event{
		Kind: obs.KindViolation, Env: envName(env), Pkg: callerPkg,
		Sys: nr.Name(), Sysno: uint32(nr), Verdict: obs.VerdictAudit,
	})
	ret, errno := lb.Kernel.InvokeUnfiltered(p, cpu, nr, args)
	return ret, errno, true
}

// SetRingBatching toggles the amortized batch drain (on by default).
// Off routes SyscallBatch through the sequential per-entry gateway —
// the reference arm ring-off probe sweeps diff against.
func (lb *LitterBox) SetRingBatching(on bool) { lb.ringSeq = !on }

// SyscallBatch drains one submission-ring batch on behalf of env,
// writing one completion per entry into out. The batch executes in
// submission order under one amortized trap (and, on LB_VTX, one
// VM exit); a mid-batch filter denial behaves exactly like sequential
// execution — entries before it complete, the denial faults or audits
// through the usual machinery, and later entries complete with
// ECANCELED. In audit mode the denied entry dispatches unfiltered and
// the rest of the batch drains normally, mirroring the sequential
// audit continuation.
func (lb *LitterBox) SyscallBatch(cpu *hw.CPU, env *Env, callerPkg string, entries []ring.Entry, out []ring.Completion) error {
	if len(entries) == 0 {
		return nil
	}
	if len(out) < len(entries) {
		panic(fmt.Sprintf("litterbox: completion queue too small: %d entries, %d slots", len(entries), len(out)))
	}
	st := lb.stateFor(cpu)
	if _, dead := lb.abortedIn(st); dead {
		return ErrAborted
	}
	if callerPkg != "" {
		cpu.Pkg = callerPkg
	}
	if lb.tracing() {
		lb.emit(cpu, obs.Event{
			Kind: obs.KindBatchSubmit, Env: envName(env), Pkg: callerPkg,
			Detail: fmt.Sprintf("%d entries", len(entries)),
		})
	}
	var err error
	if lb.ringSeq {
		err = lb.syscallBatchSeq(cpu, env, callerPkg, entries, out)
	} else {
		err = lb.syscallBatchAmortized(cpu, lb.procOf(st), env, callerPkg, entries, out)
	}
	if lb.tracing() {
		canceled := 0
		for i := range entries {
			if out[i].Errno == kernel.ECANCELED {
				canceled++
			}
		}
		lb.emit(cpu, obs.Event{
			Kind: obs.KindBatchComplete, Env: envName(env), Pkg: callerPkg,
			Detail: fmt.Sprintf("%d entries, %d canceled", len(entries), canceled),
		})
	}
	return err
}

// syscallBatchAmortized is the batched drain: the backend executes a
// window of entries under one trap and reports the first denial; the
// fault/audit decision happens here, then (audit mode only) the drain
// resumes on the tail.
func (lb *LitterBox) syscallBatchAmortized(cpu *hw.CPU, p *kernel.Proc, env *Env, callerPkg string, entries []ring.Entry, out []ring.Completion) error {
	base := 0
	for base < len(entries) {
		denied := lb.backend.SyscallBatch(cpu, p, env, entries[base:], out[base:])
		if denied < 0 {
			lb.recordBatchAttempts(env, entries[base:])
			return nil
		}
		di := base + denied
		lb.recordBatchAttempts(env, entries[base:di+1])
		e := entries[di]
		if ret, errno, handled := lb.auditSyscall(cpu, p, env, callerPkg, e.Nr, e.Args); handled {
			out[di] = ring.Completion{Tag: e.Tag, Ret: ret, Errno: errno}
			base = di + 1
			continue
		}
		lb.emit(cpu, obs.Event{
			Kind: obs.KindSyscall, Env: envName(env), Pkg: callerPkg,
			Sys: e.Nr.Name(), Sysno: uint32(e.Nr), Verdict: obs.VerdictDeny,
		})
		out[di] = ring.Completion{Tag: e.Tag, Ret: 0, Errno: kernel.ESECCOMP}
		for j := di + 1; j < len(entries); j++ {
			out[j] = ring.Completion{Tag: entries[j].Tag, Errno: kernel.ECANCELED}
		}
		return lb.RaiseFault(cpu, &Fault{Env: env, Op: "syscall", Note: e.Nr.Name()})
	}
	return nil
}

// recordBatchAttempts mirrors the gateway's per-call audit recording
// for a window of batch entries. Runtime entries are skipped: the
// sequential path issues them via the trusted environment, which the
// recorder never tracks.
func (lb *LitterBox) recordBatchAttempts(env *Env, entries []ring.Entry) {
	if lb.audit == nil || env == nil || env.Trusted {
		return
	}
	for _, e := range entries {
		if e.Runtime {
			continue
		}
		lb.recordSysAttempt(env, e.Nr, e.Args)
	}
}

// syscallBatchSeq executes the batch one entry at a time through
// SyscallGateway — the unbatched reference the probe sweep proves the
// amortized drain digest-equivalent to. Cancellation semantics are
// identical: a faulting entry completes with ESECCOMP and the tail
// with ECANCELED.
func (lb *LitterBox) syscallBatchSeq(cpu *hw.CPU, env *Env, callerPkg string, entries []ring.Entry, out []ring.Completion) error {
	for i, e := range entries {
		ret, errno, err := lb.SyscallGateway(cpu, env, SyscallReq{Nr: e.Nr, Args: e.Args, CallerPkg: callerPkg, Runtime: e.Runtime})
		if err != nil {
			out[i] = ring.Completion{Tag: e.Tag, Ret: 0, Errno: kernel.ESECCOMP}
			for j := i + 1; j < len(entries); j++ {
				out[j] = ring.Completion{Tag: entries[j].Tag, Errno: kernel.ECANCELED}
			}
			return err
		}
		out[i] = ring.Completion{Tag: e.Tag, Ret: ret, Errno: errno}
	}
	return nil
}
