package core

import (
	"fmt"

	"github.com/litterbox-project/enclosure/internal/obs"
)

// Option configures a Builder at construction time. Options compose
// left to right: NewBuilder(MPK, WithTracer(tr), WithAudit()). The
// zero configuration — NewBuilder(backend) with no options — is
// exactly the behaviour earlier releases shipped, so existing callers
// compile and run unchanged.
type Option func(*Builder)

// WithTracer attaches an observability trace to the program: every
// LitterBox API call (Init, Prolog, Epilog, FilterSyscall, Transfer,
// Execute), every kernel syscall, and every fault or audited violation
// is recorded into tr. Tracing is host-side bookkeeping — it never
// advances the virtual clock, so traced and untraced runs report
// identical virtual times.
func WithTracer(tr *obs.Trace) Option {
	return func(b *Builder) { b.tracer = tr }
}

// WithAudit switches enforcement into audit mode, the analog of
// seccomp's SECCOMP_RET_LOG: policy violations (memory accesses
// outside the view, filtered syscalls, denied connects) are recorded
// and the operation proceeds instead of faulting. The recorder also
// tracks every package, syscall category, and connect target an
// enclosure legitimately uses, so Audit.Derive can emit the minimal
// policy literal covering the observed workload. Integrity checks
// (switch tokens, call-gate verification) still fault: audit mode
// relaxes policies, never the mechanism protecting LitterBox itself.
func WithAudit() Option {
	return func(b *Builder) { b.audit = obs.NewAudit() }
}

// WithEngineWorkers sets the default worker count an engine.Engine
// uses for this program when its own Options leave Workers unset.
func WithEngineWorkers(n int) Option {
	return func(b *Builder) { b.engineWorkers = n }
}

// WithAddressSpaceSize overrides the simulated address-space capacity
// in bytes (zero keeps the default).
func WithAddressSpaceSize(bytes uint64) Option {
	return func(b *Builder) { b.spaceCap = bytes }
}

// WithSyscallRing enables the batched syscall submission ring at the
// given queue depth: tasks queue entries with Task.SubmitSyscall and
// drain them with Task.FlushSyscalls, and each drained batch pays one
// amortized trap (and, on LB_VTX, one VM exit) instead of the full
// per-call overhead. Default off — without this option the submit API
// still works but executes each entry immediately on the sequential
// path, which is the unbatched reference arm benchmarks compare
// against. Depth must be positive.
func WithSyscallRing(depth int) Option {
	if depth <= 0 {
		panic(fmt.Sprintf("core: WithSyscallRing depth must be positive, got %d", depth))
	}
	return func(b *Builder) { b.ringDepth = depth }
}

// WithWarmPool enables warm-enclosure instantiation in the engine: the
// built program is captured once as a snapshot template (Snapshot), and
// every admitted job runs in its own clone drawn from a per-worker pool
// of up to n recycled instances instead of on the shared program —
// request-level isolation at clone cost, never cold-build cost. Jobs
// see a program state identical to the freshly built one; state written
// by one job is invisible to the next (the instance is recycled to the
// snapshot between tenants). Programs whose backend cannot be
// snapshot-cloned (MPK with virtualised keys) fall back to the shared
// program transparently. n must be positive.
func WithWarmPool(n int) Option {
	if n <= 0 {
		panic(fmt.Sprintf("core: WithWarmPool size must be positive, got %d", n))
	}
	return func(b *Builder) { b.warmPool = n }
}
