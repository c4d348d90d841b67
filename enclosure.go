// Package enclosure is the public API of the Enclosure/LitterBox
// reproduction: a programming-language construct for library isolation
// (ASPLOS 2021, Ghosn et al.) over a simulated hardware substrate.
//
// An enclosure binds a closure to a memory view — per-package access
// rights — and a system-call filter, both dynamically scoped: they
// apply to the closure's body and everything it invokes, however deep.
// By default only the closure's natural dependencies are accessible and
// no system calls are permitted. LitterBox enforces the policies with a
// simulated hardware mechanism behind one API: Intel MPK (protection
// keys, with libmpk-style key virtualisation), Intel VT-x
// (per-environment page tables), or the paper's projected CHERI
// capability machine; Baseline replaces enclosures with vanilla
// closures for comparison.
//
// Quick start:
//
//	b := enclosure.New(enclosure.MPK)
//	b.Package(enclosure.PackageSpec{Name: "main", Imports: []string{"libFx"},
//	    Vars: map[string]int{"secret": 64}})
//	b.Package(enclosure.PackageSpec{Name: "libFx", Funcs: map[string]enclosure.Func{
//	    "Work": func(t *enclosure.Task, args ...enclosure.Value) ([]enclosure.Value, error) {
//	        in := args[0].(enclosure.Ref)
//	        data := t.ReadBytes(in) // read-only: writes would fault
//	        return []enclosure.Value{len(data)}, nil
//	    }}})
//	b.Enclosure("work", "main", "main:R; sys:none",
//	    func(t *enclosure.Task, args ...enclosure.Value) ([]enclosure.Value, error) {
//	        return t.Call("libFx", "Work", args...)
//	    }, "libFx")
//	prog, err := b.Build()
//	// prog.Run(...), prog.MustEnclosure("work").Call(task, ref)
//
// A protection violation — reading a package outside the view, writing
// read-only data, invoking an unmapped package's functions, or issuing
// a filtered system call — faults and aborts the simulated program;
// the fault is returned from Program.Run.
package enclosure

import (
	"errors"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/obs"
)

// Core types, re-exported.
type (
	// Backend selects the LitterBox enforcement mechanism.
	Backend = core.BackendKind
	// Builder assembles a simulated program (the compiler/linker role).
	Builder = core.Builder
	// Program is a built, runnable simulated program.
	Program = core.Program
	// Task is one simulated goroutine's enforced execution context.
	Task = core.Task
	// Func is a package function or enclosure body.
	Func = core.Func
	// Value is a host-level value passed between package functions.
	Value = core.Value
	// Ref is a pointer (base + length) into simulated memory.
	Ref = core.Ref
	// PackageSpec declares one program package.
	PackageSpec = core.PackageSpec
	// Enclosure is a closure permanently bound to a policy.
	Enclosure = core.Enclosure
	// Handle joins a spawned simulated goroutine.
	Handle = core.Handle
	// Sched is a cooperative user-level scheduler multiplexing threads
	// over one virtual CPU via LitterBox's Execute hook (§4.2).
	Sched = core.Sched
	// SchedThread is one user-level thread managed by a Sched.
	SchedThread = core.SchedThread
	// Fault is a protection violation that aborted the program.
	Fault = litterbox.Fault
	// Policy is the structured form of an enclosure policy literal.
	Policy = litterbox.Policy
	// PolicyBuilder assembles a policy fluently (see NewPolicy).
	PolicyBuilder = core.PolicyBuilder
	// Sysno is a simulated system-call number.
	Sysno = kernel.Nr
	// Errno is a simulated kernel error number.
	Errno = kernel.Errno
)

// Observability types, re-exported from the obs layer.
type (
	// Option configures a Builder (WithTracer, WithAudit, ...).
	Option = core.Option

	// Template is a program captured as a warm-enclosure snapshot
	// (Program.Snapshot); Instantiate clones it in O(state).
	Template = core.Template

	// WarmPool is a bounded free-list of recycled snapshot instances
	// (Template.NewPool).
	WarmPool = core.WarmPool
	// Trace is the structured event collector WithTracer attaches: a
	// bounded ring of recent events plus running aggregates.
	Trace = obs.Trace
	// Event is one traced enforcement event.
	Event = obs.Event
	// Snapshot is a trace's point-in-time, JSON-stable summary.
	Snapshot = obs.Snapshot
	// Audit records policy violations and observed behaviour in audit
	// mode, and derives minimal policies from them.
	Audit = obs.Audit
)

// Backend kinds.
const (
	// Baseline replaces enclosures with vanilla closures (no isolation).
	Baseline = core.Baseline
	// MPK enforces with simulated Intel Memory Protection Keys.
	MPK = core.MPK
	// VTX enforces with a simulated Intel VT-x virtual machine.
	VTX = core.VTX
	// CHERI enforces with a simulated capability machine — the paper's
	// projected future backend (§7/§8), byte-granular and switch-cheap.
	// Its costs are projections, not paper measurements.
	CHERI = core.CHERI
)

// Backends lists all backend kinds, baseline first.
var Backends = core.Backends

// Common system calls for package code (the full table lives in the
// simulated kernel; categories follow the paper's SysFilter groups).
const (
	SysRead    = kernel.NrRead
	SysWrite   = kernel.NrWrite
	SysClose   = kernel.NrClose
	SysOpen    = kernel.NrOpen
	SysUnlink  = kernel.NrUnlink
	SysSocket  = kernel.NrSocket
	SysBind    = kernel.NrBind
	SysListen  = kernel.NrListen
	SysAccept  = kernel.NrAccept
	SysConnect = kernel.NrConnect
	SysSend    = kernel.NrSend
	SysRecv    = kernel.NrRecv
	SysGetuid  = kernel.NrGetuid
	SysGetpid  = kernel.NrGetpid
)

// Errno values callers commonly branch on.
const (
	OK       = kernel.OK
	ENOENT   = kernel.ENOENT
	EBADF    = kernel.EBADF
	EACCES   = kernel.EACCES
	ESECCOMP = kernel.ESECCOMP
)

// Open flags for SysOpen.
const (
	ORdonly = kernel.ORdonly
	OWronly = kernel.OWronly
	OCreat  = kernel.OCreat
	OTrunc  = kernel.OTrunc
	OAppend = kernel.OAppend
)

// New returns a program builder targeting the given backend. Options
// configure observability and defaults:
//
//	tr := enclosure.NewTrace(1024)
//	b := enclosure.New(enclosure.MPK, enclosure.WithTracer(tr), enclosure.WithAudit())
//
// New(backend) with no options behaves exactly as before the options
// were introduced.
func New(backend Backend, opts ...Option) *Builder { return core.NewBuilder(backend, opts...) }

// NewTrace returns an event collector retaining the last capacity
// events verbatim plus aggregates over all of them; pass it to
// WithTracer.
func NewTrace(capacity int) *Trace { return obs.New(capacity) }

// WithTracer attaches an event trace to the program under
// construction. Tracing is host-side and never advances virtual time.
func WithTracer(tr *Trace) Option { return core.WithTracer(tr) }

// WithAudit runs the program in audit mode: policy violations are
// recorded and allowed through instead of faulting, and the recorder
// can derive the minimal policy covering what each enclosure actually
// did (Program.Audit().Derive). Integrity checks still fault.
func WithAudit() Option { return core.WithAudit() }

// WithEngineWorkers sets the default engine worker count for the
// program.
func WithEngineWorkers(n int) Option { return core.WithEngineWorkers(n) }

// WithSyscallRing enables the batched syscall submission ring at the
// given queue depth: tasks queue entries with Task.SubmitSyscall and
// drain them with Task.FlushSyscalls, paying one amortized trap (and,
// on LB_VTX, one VM exit) per batch instead of the full per-call
// overhead. Default off; depth must be positive or the option panics.
func WithSyscallRing(depth int) Option { return core.WithSyscallRing(depth) }

// WithWarmPool enables warm-enclosure snapshot instantiation: the built
// program is captured once as a post-init template and every job an
// engine admits runs in its own clone drawn from a per-worker pool of
// up to n recycled instances — request-level isolation at clone cost
// instead of cold-build cost. Each job observes the program exactly as
// Build left it; nothing a previous tenant wrote survives recycling.
// Programs whose backend cannot be snapshot-cloned fall back to the
// shared program transparently. n must be positive or the option
// panics.
func WithWarmPool(n int) Option { return core.WithWarmPool(n) }

// NewHandoff returns a hand-off buffering up to n values: the channel
// of a program's simulated goroutines. The goroutines of one program
// take turns, and code inside an enclosure or a package function waits
// for a sibling only through a hand-off's Send and Recv or through
// Handle.Join, which let the sibling run for the wait. A raw channel
// wait there would stall the sibling it waits for.
func NewHandoff[T any](n int) *core.Handoff[T] { return core.NewHandoff[T](n) }

// DefaultHostIP returns the simulated program's own network address
// (10.0.0.1); external drivers dial simulated listeners with it.
func DefaultHostIP() uint32 { return core.DefaultHostIP }

// Program-wide policies (§3.2) are declared with Builder.EnclosePackage,
// which wraps every non-enclosed call into a package in an
// auto-generated enclosure — the automation the paper suggests a
// compiler could perform. See Builder.EnclosePackage.

// ParsePolicy parses a policy literal in the paper's syntax, e.g.
// "secrets:R; sys:none" or "sys:net,io; connect:10.0.0.2".
func ParsePolicy(s string) (Policy, error) { return core.ParsePolicy(s) }

// NewPolicy returns a fluent policy builder whose String() renders the
// canonical literal ParsePolicy accepts:
//
//	enclosure.NewPolicy().Read("secrets").Sys("net", "io").ConnectNone().String()
func NewPolicy() *PolicyBuilder { return core.NewPolicy() }

// AsFault extracts the protection fault from an error returned by
// Program.Run, Handle.Join, or an engine's serve loop, if there is
// one. Joined errors (errors.Join trees, as a multi-worker shutdown
// returns) are traversed.
func AsFault(err error) (*Fault, bool) {
	var f *Fault
	if errors.As(err, &f) {
		return f, true
	}
	return nil, false
}
