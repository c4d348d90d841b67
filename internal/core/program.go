package core

import (
	"fmt"

	"github.com/litterbox-project/enclosure/internal/alloc"
	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/linker"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/obs"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
	"github.com/litterbox-project/enclosure/internal/simfs"
	"github.com/litterbox-project/enclosure/internal/simnet"
	"github.com/litterbox-project/enclosure/internal/snapstart"
)

// Program is a built, runnable simulated program.
type Program struct {
	kind     BackendKind
	graph    *pkggraph.Graph
	image    *linker.Image
	space    *mem.AddressSpace
	clock    *hw.Clock
	counters *hw.Counters
	kernel   *kernel.Kernel
	proc     *kernel.Proc
	lb       *litterbox.LitterBox
	heap     *alloc.Heap
	funcs    map[string]map[string]Func
	encls    map[string]*Enclosure
	// funcsShared marks funcs as aliased with a snapshot template:
	// ImportDynamic copies the outer map before adding a package. The
	// per-package maps are never written after creation.
	funcsShared bool
	pw          map[string]string // program-wide policies: package -> wrapper enclosure

	engineWorkers int
	ringDepth     int
	warmPool      int

	// snapInst is non-nil when this program is a warm clone produced by
	// Template.Instantiate; Template.Recycle resets it in place.
	snapInst *snapstart.Instance
	// worker is the worker context a snapshot instance owns (nil until
	// InstanceWorker makes it); Template.Recycle resets it.
	worker *WorkerCtx

	runtimeCPU *hw.CPU

	// q is the program's run queue: its run token and the tasks
	// waiting for it (see run.go). The kernel's network waits go
	// through it.
	q runq
}

// lookupFunc resolves pkg.fn.
func (p *Program) lookupFunc(pkg, fn string) (Func, bool) {
	fns, ok := p.funcs[pkg]
	if !ok {
		return nil, false
	}
	f, ok := fns[fn]
	return f, ok
}

// hasPackageFuncs reports whether the package has registered code.
func (p *Program) hasPackageFuncs(pkg string) bool {
	_, ok := p.funcs[pkg]
	return ok
}

// newCPU returns a fresh virtual CPU sharing the program clock and
// counters, starting in the trusted hardware state (all-allowing PKRU,
// page table 0).
func (p *Program) newCPU() *hw.CPU {
	cpu := hw.CPUOn(p.clock, p.counters)
	return &cpu
}

// runtimeMmap is the allocator's span source: a trusted mmap syscall.
func (p *Program) runtimeMmap(size uint64) (*mem.Section, error) {
	base, errno := p.kernel.InvokeUnfiltered(p.proc, p.runtimeCPU, kernel.NrMmap, [6]uint64{size})
	if errno != kernel.OK {
		return nil, fmt.Errorf("core: mmap: %v", errno)
	}
	sec := p.kernel.SpanSection(mem.Addr(base))
	if sec == nil {
		return nil, fmt.Errorf("core: mmap returned unknown span at %#x", base)
	}
	return sec, nil
}

// runtimeTransfer is the allocator's arena-reassignment hook: it calls
// LitterBox's Transfer from the trusted runtime.
func (p *Program) runtimeTransfer(sec *mem.Section, toPkg string) error {
	return p.lb.Transfer(p.runtimeCPU, sec, toPkg)
}

// Backend returns which enforcement backend the program was built with.
func (p *Program) Backend() BackendKind { return p.kind }

// Clock returns the program's virtual clock.
func (p *Program) Clock() *hw.Clock { return p.clock }

// Counters returns the program-wide hardware event counters.
func (p *Program) Counters() *hw.Counters { return p.counters }

// Kernel returns the simulated kernel.
func (p *Program) Kernel() *kernel.Kernel { return p.kernel }

// Proc returns the simulated process.
func (p *Program) Proc() *kernel.Proc { return p.proc }

// FS returns the simulated filesystem namespace.
func (p *Program) FS() *simfs.FS { return p.kernel.FS }

// Net returns the simulated network namespace.
func (p *Program) Net() *simnet.Net { return p.kernel.Net }

// Heap returns the runtime allocator.
func (p *Program) Heap() *alloc.Heap { return p.heap }

// LitterBox exposes the enforcement framework (for tests and tools).
func (p *Program) LitterBox() *litterbox.LitterBox { return p.lb }

// ExportEnvState snapshots the program's environment table and span
// ownership for migration — one consistent RCU read, never torn by a
// concurrent dynamic import (see litterbox.StateExport).
func (p *Program) ExportEnvState() litterbox.StateExport { return p.lb.ExportState() }

// VerifyEnvPolicy re-verifies a shipped snapshot against this
// program's own environment policies, without the heap-span
// comparison — what a cluster node verifies when a *session* migrates
// in: both
// nodes run the same image under the same policy, but each heap
// reflects its own request history (see litterbox.VerifyPolicy).
func (p *Program) VerifyEnvPolicy(exp litterbox.StateExport) error { return p.lb.VerifyPolicy(exp) }

// Tracer returns the observability trace attached via WithTracer, or
// nil when the program is untraced.
func (p *Program) Tracer() *obs.Trace { return p.lb.Tracer() }

// Audit returns the audit recorder attached via WithAudit, or nil when
// the program enforces its policies.
func (p *Program) Audit() *obs.Audit { return p.lb.Audit() }

// DefaultEngineWorkers returns the worker count set via
// WithEngineWorkers (zero when unset: the engine picks its own
// default).
func (p *Program) DefaultEngineWorkers() int { return p.engineWorkers }

// WarmPoolSize returns the per-worker warm-pool capacity set via
// WithWarmPool (zero when warm instantiation is off and the engine runs
// every job on the shared program).
func (p *Program) WarmPoolSize() int { return p.warmPool }

// IsSnapshotInstance reports whether this program was produced by
// Template.Instantiate rather than a cold Build.
func (p *Program) IsSnapshotInstance() bool { return p.snapInst != nil }

// Graph returns the package-dependence graph.
func (p *Program) Graph() *pkggraph.Graph { return p.graph }

// Image returns the linked image.
func (p *Program) Image() *linker.Image { return p.image }

// Enclosure returns the named enclosure handle.
func (p *Program) Enclosure(name string) (*Enclosure, error) {
	e, ok := p.encls[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchEncl, name)
	}
	return e, nil
}

// MustEnclosure is Enclosure for program text where absence is a bug.
func (p *Program) MustEnclosure(name string) *Enclosure {
	e, err := p.Enclosure(name)
	if err != nil {
		panic(err)
	}
	return e
}

// VarRef returns a Ref to a package's static variable.
func (p *Program) VarRef(pkg, name string) (Ref, error) {
	pl := p.image.Layout(pkg)
	if pl == nil {
		return Ref{}, fmt.Errorf("core: unknown package %q", pkg)
	}
	sym, ok := pl.Vars[name]
	if !ok {
		return Ref{}, fmt.Errorf("core: package %s has no variable %q", pkg, name)
	}
	return Ref{Addr: sym.Addr, Size: sym.Size}, nil
}

// ConstRef returns a Ref to a package constant.
func (p *Program) ConstRef(pkg, name string) (Ref, error) {
	pl := p.image.Layout(pkg)
	if pl == nil {
		return Ref{}, fmt.Errorf("core: unknown package %q", pkg)
	}
	sym, ok := pl.Consts[name]
	if !ok {
		return Ref{}, fmt.Errorf("core: package %s has no constant %q", pkg, name)
	}
	return Ref{Addr: sym.Addr, Size: sym.Size}, nil
}

// GrantCapability refines an enclosure's memory view with a
// byte-granular capability over the referenced range — the page-free
// sharing only the CHERI backend can express (e.g. making a co-located
// object header writable inside an otherwise read-only module).
func (p *Program) GrantCapability(enclName string, r Ref, write bool) error {
	e, err := p.Enclosure(enclName)
	if err != nil {
		return err
	}
	cb, ok := p.lb.Backend().(*litterbox.CHERIBackend)
	if !ok {
		return fmt.Errorf("core: GrantCapability requires the CHERI backend (have %s)", p.lb.Backend().Name())
	}
	perm := mem.PermR
	if write {
		perm |= mem.PermW
	}
	return cb.GrantCapability(e.env, r.Addr, r.Size, perm)
}

// Fault returns the protection fault that aborted the program, if any.
func (p *Program) Fault() (*litterbox.Fault, bool) {
	return p.lb.Aborted()
}

// Run executes body as (part of) the program's main goroutine in the
// trusted environment. A protection fault anywhere under body aborts
// the program and is returned as the error, mirroring the paper's
// fault-stops-the-program semantics while keeping the host test harness
// alive.
func (p *Program) Run(body func(t *Task) error) (err error) {
	p.q.Lock()
	t := p.newTaskOn(nil, "main", p.lb.Trusted(), "main")
	p.q.Unlock()
	defer func() {
		if r := recover(); r != nil {
			if f, ok := r.(*litterbox.Fault); ok {
				err = f
				return
			}
			panic(r)
		}
	}()
	return body(t)
}

// NewSpan maps a fresh heap span of the given size via the trusted
// runtime path (owned by the heap pool until transferred). Benchmarks
// and the runtime use it; package code allocates through Task.Alloc.
func (p *Program) NewSpan(size uint64) (*mem.Section, error) {
	p.q.Lock()
	defer p.q.Unlock()
	return p.runtimeMmap(size)
}

// TransferSpan reassigns a heap span to a package's arena via
// LitterBox's Transfer from the trusted runtime (the Table 1 transfer
// micro-benchmark exercises exactly this path).
func (p *Program) TransferSpan(sec *mem.Section, toPkg string) error {
	p.q.Lock()
	defer p.q.Unlock()
	return p.runtimeTransfer(sec, toPkg)
}
