package core

import (
	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/ring"
)

// WorkerCtx is one parallel virtual CPU's execution context: its own
// clock (virtual time accrues per core), hardware event counters,
// kernel process state (fd table), fault domain, and LitterBox
// environment cache. The program image, kernel namespaces, heap, and
// enclosure tables stay shared and read-mostly — exactly the state a
// real multi-core process shares between threads.
//
// Simulated goroutines pinned to a worker each get their own
// architectural CPU (PKRU/CR3 are per-register-context), but all of
// them charge the worker's clock, taking turns on the program's run
// token, so per-worker accrual is the sum of the work its goroutines
// performed.
//
// A warm snapshot instance owns one worker (Program.InstanceWorker),
// which lives as long as the instance: Template.Recycle gives it back
// NewWorker's state for the next tenant — clock, counters and ring
// queues zeroed, fd table emptied, fault domain live again — but keeps
// its host objects and its EnvCache, whose entries stay valid (see
// litterbox.LitterBox.ResetTo for when they are flushed).
type WorkerCtx struct {
	prog  *Program
	name  string
	proc  *kernel.Proc
	cache *litterbox.EnvCache

	// ring is the worker's syscall submission ring (nil when the
	// program was built without WithSyscallRing). Per-worker ownership
	// mirrors io_uring's per-thread rings: tasks pinned to this worker
	// share it, under the engine's one-request-at-a-time discipline.
	ring *ring.Ring

	// The worker's own state, inline, so a worker is one allocation
	// besides its proc, cache and ring.
	clock    hw.Clock
	counters hw.Counters
	domain   litterbox.FaultDomain
	state    litterbox.CPUState
}

// NewWorker creates a parallel worker context. Faults raised by tasks
// on this worker abort only its fault domain, never the program or
// other workers.
func (p *Program) NewWorker(name string) *WorkerCtx {
	w := &WorkerCtx{
		prog:  p,
		name:  name,
		proc:  p.kernel.NewProc(p.proc.UID, p.proc.PID, p.proc.HostIP),
		cache: litterbox.NewEnvCache(),
	}
	if p.ringDepth > 0 {
		w.ring = ring.New(p.ringDepth)
	}
	w.state = litterbox.CPUState{Proc: w.proc, Domain: &w.domain, Name: name, Cache: w.cache}
	p.lb.BindWorker(&w.clock, &w.state)
	return w
}

// InstanceWorker returns the worker context a snapshot instance owns,
// making it, named name, on the first call; later calls return it
// whatever name they pass. The engine runs every job it gives the
// instance on this worker, so a recycled instance serves its next
// tenant without building a worker, a process or a cache.
func (p *Program) InstanceWorker(name string) *WorkerCtx {
	if p.worker == nil {
		p.worker = p.NewWorker(name)
	}
	return p.worker
}

// reset gives an instance's worker NewWorker's state back after its
// program was recycled: the fd table is emptied without closing what
// it held (the descriptors die with the tenant), the clock, counters
// and ring queues zero, the fault domain's abort clears (its count of
// faults stays cumulative), and the state is bound again, since the
// recycle unbound it.
func (w *WorkerCtx) reset() {
	w.proc.Reset()
	w.clock.Reset()
	w.counters.Reset()
	w.domain.Reset()
	if w.ring != nil {
		w.ring.Reset()
	}
	w.prog.lb.BindWorker(&w.clock, &w.state)
}

// Name returns the worker's diagnostic name.
func (w *WorkerCtx) Name() string { return w.name }

// Clock returns the worker's virtual clock.
func (w *WorkerCtx) Clock() *hw.Clock { return &w.clock }

// Counters returns the worker's hardware event counters.
func (w *WorkerCtx) Counters() *hw.Counters { return &w.counters }

// Proc returns the worker's kernel process context.
func (w *WorkerCtx) Proc() *kernel.Proc { return w.proc }

// Domain returns the worker's fault domain.
func (w *WorkerCtx) Domain() *litterbox.FaultDomain { return &w.domain }

// EnvCache returns the worker's Prolog target cache.
func (w *WorkerCtx) EnvCache() *litterbox.EnvCache { return w.cache }

// NewTaskOn creates a trusted-environment task pinned to worker w: its
// CPU charges w's clock, its syscalls run under w's proc, its faults
// abort only w's domain, and its Prologs resolve through w's cache.
func (p *Program) NewTaskOn(w *WorkerCtx, name string) *Task {
	p.q.Lock()
	defer p.q.Unlock()
	return p.newTaskOn(w, name, p.lb.Trusted(), "main")
}

// newTaskOn makes a task pinned to w, or on the program's own clock
// when w is nil. The caller holds the run token: installing the
// environment charges the clock.
func (p *Program) newTaskOn(w *WorkerCtx, name string, env *litterbox.Env, pkg string) *Task {
	t := newTask(p, name, env, pkg)
	if w == nil {
		t.ownCPU = hw.CPUOn(p.clock, p.counters)
	} else {
		t.ownCPU = hw.CPUOn(&w.clock, &w.counters)
		t.worker, t.cache = w, w.cache
	}
	t.cpu = &t.ownCPU
	// Scheduler hook: place the fresh hardware thread into its
	// environment (fresh CPUs boot with indeterminate PKRU/CR3).
	if err := p.lb.InstallEnv(t.cpu, env); err != nil {
		panic(err)
	}
	return t
}
