package core

import (
	"fmt"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/ring"
)

// Task is one simulated goroutine's execution context. Every data
// access, allocation, cross-package call, system call, and spawn issued
// by package code flows through it and is enforced under the task's
// current execution environment. A protection violation panics with the
// *litterbox.Fault, unwinding the simulated program exactly as the
// paper's fault semantics dictate; Program.Run and Handle.Join convert
// it into an error for the host.
type Task struct {
	prog   *Program
	cpu    *hw.CPU // &ownCPU, or a Sched's CPU its threads share
	env    *litterbox.Env
	pkgs   []string
	name   string
	sched  *Sched              // non-nil for user-level threads on a Sched CPU
	worker *WorkerCtx          // non-nil when pinned to an engine worker
	cache  *litterbox.EnvCache // per-worker Prolog target cache
	frames []stackFrame        // split-stack segments (see stack.go)
	// held reports whether the task holds its program's run token: it
	// is inside a core entry point, or is a coroutine (see run.go).
	held bool
	// resume runs a coroutine's next turn; it returns when the turn
	// calls yield or the body exits. Both are nil for host-driven tasks.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool

	// ring is the task-private submission ring for tasks not pinned to
	// a worker (pinned tasks share the worker's); nil until the first
	// submit, and always nil when the program's ring depth is zero.
	ring *ring.Ring
	// cqOff holds ring-off completions: with no ring configured the
	// submit API executes entries immediately and queues results here
	// so callers reap identical Completion values either way. Flush and
	// reap keep its backing array for the next batch.
	cqOff []ring.Completion

	// The task's own storage: its CPU, and the first arrays behind
	// pkgs, frames and cqOff. A task whose enclosure nesting and
	// syscall batches fit them is one allocation.
	ownCPU   hw.CPU
	pkgBuf   [4]string
	frameBuf [2]stackFrame
	cqBuf    [4]ring.Completion
}

// newTask returns a task of p running pkg's code under env, its slices
// backed by its inline arrays. The caller sets its CPU.
func newTask(p *Program, name string, env *litterbox.Env, pkg string) *Task {
	t := &Task{prog: p, env: env, name: name}
	t.pkgs = append(t.pkgBuf[:0], pkg)
	t.frames = t.frameBuf[:0]
	t.cqOff = t.cqBuf[:0]
	return t
}

// Worker returns the worker context the task is pinned to (nil for
// single-core tasks).
func (t *Task) Worker() *WorkerCtx { return t.worker }

// Prog returns the owning program.
func (t *Task) Prog() *Program { return t.prog }

// Env returns the task's current execution environment.
func (t *Task) Env() *litterbox.Env { return t.env }

// CPU exposes the task's virtual CPU (for tests).
func (t *Task) CPU() *hw.CPU { return t.cpu }

// CurrentPkg returns the package whose code is currently executing; the
// allocator attributes allocations to it, mirroring the paper's
// compiler augmenting mallocgc with the caller's package identifier.
func (t *Task) CurrentPkg() string { return t.pkgs[len(t.pkgs)-1] }

func (t *Task) pushPkg(pkg string) { t.pkgs = append(t.pkgs, pkg) }
func (t *Task) popPkg()            { t.pkgs = t.pkgs[:len(t.pkgs)-1] }

// fail panics with the fault so execution cannot continue past a
// protection violation.
func (t *Task) fail(err error) {
	if f, ok := err.(*litterbox.Fault); ok {
		panic(f)
	}
	panic(t.prog.lb.RaiseFault(t.cpu, &litterbox.Fault{Env: t.env, Op: "runtime", Cause: err}))
}

// checkAlive panics if an earlier fault killed this task's fault domain
// (its worker) or the whole program.
func (t *Task) checkAlive() {
	if f, dead := t.prog.lb.AbortedOn(t.cpu); dead {
		panic(f)
	}
}

// --- Memory access -------------------------------------------------

// ReadBytes copies the referenced simulated memory into a host buffer,
// enforcing the current memory view.
func (t *Task) ReadBytes(r Ref) []byte {
	defer t.leave(t.enter())
	t.checkAlive()
	if err := t.prog.lb.CheckRead(t.cpu, t.env, r.Addr, r.Size); err != nil {
		t.fail(err)
	}
	buf := make([]byte, r.Size)
	if err := t.prog.space.ReadAt(r.Addr, buf); err != nil {
		t.fail(err)
	}
	return buf
}

// WriteBytes stores data at the referenced memory, enforcing the view.
func (t *Task) WriteBytes(r Ref, data []byte) {
	defer t.leave(t.enter())
	t.checkAlive()
	if uint64(len(data)) > r.Size {
		t.fail(fmt.Errorf("core: write of %d bytes into %s", len(data), r))
	}
	if err := t.prog.lb.CheckWrite(t.cpu, t.env, r.Addr, uint64(len(data))); err != nil {
		t.fail(err)
	}
	if err := t.prog.space.WriteAt(r.Addr, data); err != nil {
		t.fail(err)
	}
}

// Load8 reads one byte.
func (t *Task) Load8(addr mem.Addr) byte {
	defer t.leave(t.enter())
	t.checkAlive()
	if err := t.prog.lb.CheckRead(t.cpu, t.env, addr, 1); err != nil {
		t.fail(err)
	}
	v, err := t.prog.space.Load8(addr)
	if err != nil {
		t.fail(err)
	}
	return v
}

// Store8 writes one byte.
func (t *Task) Store8(addr mem.Addr, v byte) {
	defer t.leave(t.enter())
	t.checkAlive()
	if err := t.prog.lb.CheckWrite(t.cpu, t.env, addr, 1); err != nil {
		t.fail(err)
	}
	if err := t.prog.space.Store8(addr, v); err != nil {
		t.fail(err)
	}
}

// Load64 reads a little-endian uint64.
func (t *Task) Load64(addr mem.Addr) uint64 {
	defer t.leave(t.enter())
	t.checkAlive()
	if err := t.prog.lb.CheckRead(t.cpu, t.env, addr, 8); err != nil {
		t.fail(err)
	}
	v, err := t.prog.space.Load64(addr)
	if err != nil {
		t.fail(err)
	}
	return v
}

// Store64 writes a little-endian uint64.
func (t *Task) Store64(addr mem.Addr, v uint64) {
	defer t.leave(t.enter())
	t.checkAlive()
	if err := t.prog.lb.CheckWrite(t.cpu, t.env, addr, 8); err != nil {
		t.fail(err)
	}
	if err := t.prog.space.Store64(addr, v); err != nil {
		t.fail(err)
	}
}

// Compute charges ns nanoseconds of modelled CPU work to the program
// clock. Workloads use it to model their compute phases on the paper's
// hardware (Xeon Gold 6132); the isolation overheads the benchmarks
// compare against it come from the enforcement mechanisms themselves.
func (t *Task) Compute(ns int64) {
	defer t.leave(t.enter())
	t.cpu.Clock.Advance(ns)
}

// --- Allocation ----------------------------------------------------

// Alloc allocates n bytes in the current package's arena.
func (t *Task) Alloc(n uint64) Ref {
	defer t.leave(t.enter())
	t.checkAlive()
	addr, err := t.prog.heap.Arena(t.CurrentPkg()).Alloc(n)
	if err != nil {
		t.fail(err)
	}
	return Ref{Addr: addr, Size: n}
}

// AllocIn allocates in an explicit package's arena (runtime use).
func (t *Task) AllocIn(pkg string, n uint64) Ref {
	defer t.leave(t.enter())
	t.checkAlive()
	addr, err := t.prog.heap.Arena(pkg).Alloc(n)
	if err != nil {
		t.fail(err)
	}
	return Ref{Addr: addr, Size: n}
}

// Free releases an allocation made in the current package's arena.
func (t *Task) Free(r Ref) {
	defer t.leave(t.enter())
	t.checkAlive()
	owner := t.prog.heap.OwnerOf(r.Addr)
	if err := t.prog.heap.Arena(owner).Free(r.Addr); err != nil {
		t.fail(err)
	}
}

// NewBytes allocates in the current arena and writes data through the
// enforced path, returning the Ref.
func (t *Task) NewBytes(data []byte) Ref {
	r := t.Alloc(uint64(len(data)))
	t.WriteBytes(r, data)
	return r
}

// NewString is NewBytes for string payloads.
func (t *Task) NewString(s string) Ref { return t.NewBytes([]byte(s)) }

// ReadString reads the referenced memory as a string.
func (t *Task) ReadString(r Ref) string { return string(t.ReadBytes(r)) }

// --- Cross-package calls -------------------------------------------

// Call invokes pkg.fn under the current environment. The callee's
// package becomes the current package for the duration (allocations are
// attributed to it), and the call is subject to execute rights on pkg.
// Packages under a program-wide policy (§3.2) are entered through their
// auto-generated wrapper enclosure when called from non-enclosed code.
func (t *Task) Call(pkg, fn string, args ...Value) ([]Value, error) {
	defer t.leave(t.enter())
	t.checkAlive()
	if t.env.Trusted {
		if wrapper, ok := t.prog.pw[pkg]; ok {
			return t.prog.encls[wrapper].Call(t, append([]Value{fn}, args...)...)
		}
	}
	if !t.prog.hasPackageFuncs(pkg) {
		return nil, fmt.Errorf("%w: package %q", ErrNoSuchFunc, pkg)
	}
	f, ok := t.prog.lookupFunc(pkg, fn)
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchFunc, pkg, fn)
	}
	entry := mem.Addr(0)
	if pl := t.prog.image.Layout(pkg); pl != nil {
		if sym, ok := pl.Funcs[fn]; ok {
			entry = sym.Addr
		}
	}
	if err := t.prog.lb.CheckExec(t.cpu, t.env, pkg, entry); err != nil {
		t.fail(err)
	}
	t.pushPkg(pkg)
	defer t.popPkg()
	return f(t, args...)
}

// --- System calls ---------------------------------------------------

// Syscall performs a system call under the current environment's
// filter. Filtered calls fault (panic); legitimate kernel errors come
// back as errnos.
func (t *Task) Syscall(nr kernel.Nr, args ...uint64) (uint64, kernel.Errno) {
	defer t.leave(t.enter())
	t.checkAlive()
	var a [6]uint64
	copy(a[:], args)
	ret, errno, err := t.prog.lb.SyscallGateway(t.cpu, t.env, litterbox.SyscallReq{Nr: nr, Args: a, CallerPkg: t.CurrentPkg()})
	if err != nil {
		t.fail(err)
	}
	return ret, errno
}

// RuntimeSyscall issues a system call from the language runtime's
// trusted context (scheduler wakeups, deadline timers, entropy): the
// runtime switches to the trusted environment, calls, and switches
// back, so the enclosure's filter does not apply but every backend's
// switch and virtualisation costs do.
func (t *Task) RuntimeSyscall(nr kernel.Nr, args ...uint64) (uint64, kernel.Errno) {
	defer t.leave(t.enter())
	t.checkAlive()
	var a [6]uint64
	copy(a[:], args)
	t.cpu.Pkg = t.CurrentPkg()
	ret, errno, err := t.prog.lb.SyscallGateway(t.cpu, t.env, litterbox.SyscallReq{Nr: nr, Args: a, Runtime: true})
	if err != nil {
		t.fail(err)
	}
	return ret, errno
}

// --- Batched syscalls (submission ring) ------------------------------

// syscallRing resolves the task's submission ring: the worker's when
// pinned (per-worker-proc ownership), a lazily created task-private
// ring otherwise, nil when the program was built without
// WithSyscallRing.
func (t *Task) syscallRing() *ring.Ring {
	if t.prog.ringDepth <= 0 {
		return nil
	}
	if t.worker != nil {
		return t.worker.ring
	}
	if t.ring == nil {
		t.ring = ring.New(t.prog.ringDepth)
	}
	return t.ring
}

// SubmitSyscall queues one syscall entry on the task's submission
// ring, tagged for correlation with its completion. With the ring off
// (no WithSyscallRing) the entry executes immediately on the
// sequential path and its completion is queued for FlushSyscalls, so
// callers use one API in both modes. A full ring drains automatically
// before accepting the entry. A denied entry faults exactly as
// Task.Syscall does — at drain time when batched — and cancels the
// rest of its batch with ECANCELED.
func (t *Task) SubmitSyscall(tag uint64, nr kernel.Nr, args ...uint64) {
	var a [6]uint64
	copy(a[:], args)
	t.submitEntry(ring.Entry{Nr: nr, Args: a, Tag: tag})
}

// SubmitRuntimeSyscall is SubmitSyscall for language-runtime calls
// (scheduler wakeups, deadline timers, entropy): the entry dispatches
// unfiltered, as Task.RuntimeSyscall's excursion through the trusted
// environment does.
func (t *Task) SubmitRuntimeSyscall(tag uint64, nr kernel.Nr, args ...uint64) {
	var a [6]uint64
	copy(a[:], args)
	t.submitEntry(ring.Entry{Nr: nr, Args: a, Tag: tag, Runtime: true})
}

func (t *Task) submitEntry(e ring.Entry) {
	defer t.leave(t.enter())
	t.checkAlive()
	r := t.syscallRing()
	if r == nil {
		if e.Runtime {
			t.cpu.Pkg = t.CurrentPkg()
		}
		ret, errno, err := t.prog.lb.SyscallGateway(t.cpu, t.env, litterbox.SyscallReq{
			Nr: e.Nr, Args: e.Args, CallerPkg: t.CurrentPkg(), Runtime: e.Runtime,
		})
		if err != nil {
			t.fail(err)
		}
		t.cqOff = append(t.cqOff, ring.Completion{Tag: e.Tag, Ret: ret, Errno: errno})
		return
	}
	if r.Full() {
		t.drainRing(r)
	}
	r.Submit(e)
}

// FlushSyscalls drains every queued entry and returns all posted
// completions, oldest first. A mid-batch denial faults (panics with
// the *litterbox.Fault) after the batch's completions post, exactly
// like the corresponding sequence of Task.Syscall calls. The slice is
// the task's completion queue, the ring's when it is on: it stays
// valid until the task's next SubmitSyscall, FlushSyscalls or
// ReapSyscalls.
func (t *Task) FlushSyscalls() []ring.Completion {
	defer t.leave(t.enter())
	t.checkAlive()
	r := t.syscallRing()
	if r == nil {
		return t.reapOff()
	}
	t.drainRing(r)
	return r.Reap()
}

// ReapSyscalls returns every completion already posted without
// draining the submission queue — the incremental consumption loop of
// a real ring. Long submission streams interleave SubmitSyscall with
// ReapSyscalls so the bounded completion queue never overflows (the
// ring auto-drains a full SQ on submit, posting up to depth
// completions); FlushSyscalls at the end collects the final partial
// batch. The slice has FlushSyscalls' lifetime.
func (t *Task) ReapSyscalls() []ring.Completion {
	defer t.leave(t.enter())
	t.checkAlive()
	r := t.syscallRing()
	if r == nil {
		return t.reapOff()
	}
	return r.Reap()
}

// reapOff returns the queued ring-off completions and empties the
// queue, keeping its backing array: the next submit overwrites the
// returned slice, as the ring's own completion queue does.
func (t *Task) reapOff() []ring.Completion {
	out := t.cqOff
	t.cqOff = t.cqOff[:0]
	return out
}

// drainRing pushes the ring's queued batch through the LitterBox batch
// gateway and posts the completions.
func (t *Task) drainRing(r *ring.Ring) {
	err := r.Drain(func(batch []ring.Entry, out []ring.Completion) error {
		return t.prog.lb.SyscallBatch(t.cpu, t.env, t.CurrentPkg(), batch, out)
	})
	if err != nil {
		// The fault abandoned the batch: drop in-flight ring state so a
		// later task on this worker cannot reap a dead batch's tail.
		r.Reset()
		t.fail(err)
	}
}

// --- Goroutines ------------------------------------------------------

// Handle joins a spawned simulated goroutine.
type Handle struct {
	q       *runq // the run queue of the goroutine's program, which guards the rest
	done    bool
	err     error
	joiners waitq
}

// Join blocks until the goroutine finishes and returns its error (a
// *litterbox.Fault if it died to a protection violation). t is the
// waiting task, or nil for host code; a task that joins from inside an
// entry point releases its run token for the wait, as a Handoff does.
func (h *Handle) Join(t *Task) error {
	defer h.q.leave(t, h.q.enter(t))
	if !h.done {
		w := h.q.waiter(h.q.cur)
		h.joiners.push(w)
		h.q.block(w)
	}
	return h.err
}

// Go spawns a simulated goroutine. The paper's rule (§5.1): "execution
// environments are transitively inherited by goroutine creation so that
// user-level threads created inside an enclosure's environment continue
// to execute in the same environment." The scheduler installs the
// environment on the fresh CPU via LitterBox's Execute hook.
func (t *Task) Go(name string, fn func(t *Task) error) *Handle {
	defer t.leave(t.enter())
	t.checkAlive()
	// Goroutines spawned on a worker stay pinned to it: they charge its
	// clock and fault into its domain.
	return t.prog.start(t.prog.newTaskOn(t.worker, name, t.env, t.CurrentPkg()), fn)
}

// start makes fn t's coroutine. The caller holds the run token; t
// joins the tail of the run queue, and each of its turns holds the
// token, from the resume that starts it until t blocks or exits. On
// exit it queues its joiners.
func (p *Program) start(t *Task, fn func(t *Task) error) *Handle {
	q := &p.q
	h := &Handle{q: q}
	t.held = true
	t.startCoroutine(func() {
		h.err, h.done = t.turn(fn), true
		for w := h.joiners.pop(); w != nil; w = h.joiners.pop() {
			q.ready(w)
		}
	})
	q.ready(q.waiter(t))
	return h
}

// turn runs a simulated goroutine's body, returning the fault that
// kills it as its error.
func (t *Task) turn(fn func(t *Task) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(*litterbox.Fault)
			if !ok {
				panic(r)
			}
			err = f
		}
	}()
	if t.sched != nil {
		if err := t.sched.resume(t); err != nil {
			t.fail(err)
		}
	}
	return fn(t)
}
