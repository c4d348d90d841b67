package litterbox

import (
	"sync/atomic"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
)

// FaultDomain scopes protection faults to one worker CPU. The paper's
// single-threaded evaluation aborts the whole program on any fault; a
// multi-core server instead contains a fault to the core (and so the
// request) that raised it — a fault on worker A never aborts worker B.
// The engine resets the domain between requests, the way net/http
// recovers a panicking handler without taking the process down.
type FaultDomain struct {
	aborted atomic.Bool
	fault   atomic.Pointer[Fault]
	faults  atomic.Int64
}

// Aborted reports whether a fault has aborted this domain, and the fault.
func (d *FaultDomain) Aborted() (*Fault, bool) {
	if !d.aborted.Load() {
		return nil, false
	}
	return d.fault.Load(), true
}

// Faults returns the total number of faults raised in this domain,
// including ones already cleared by Reset.
func (d *FaultDomain) Faults() int64 { return d.faults.Load() }

// Reset clears the abort so the owning worker can serve its next
// request. The cumulative fault count is preserved.
func (d *FaultDomain) Reset() {
	d.fault.Store(nil)
	d.aborted.Store(false)
}

// CPUState is the per-worker state LitterBox consults on hot paths: the
// kernel process context system calls execute under and the fault
// domain violations abort. Bindings are keyed by the worker's *clock*:
// every simulated goroutine gets its own architectural CPU (register
// context), but all goroutines pinned to one worker share that worker's
// clock, so the clock identifies the worker. CPUs with no binding fall
// back to the program-wide Proc and the program-wide abort — the
// single-core behaviour.
type CPUState struct {
	Proc   *kernel.Proc
	Domain *FaultDomain
	// Name identifies the worker in trace events ("cpu0"); empty for
	// the single-core main context.
	Name string
	// Cache is the worker's Prolog cache, if it has one: ResetTo
	// flushes it when the reset drops environments its entries may
	// name.
	Cache *EnvCache

	// clock and next make the state a node of its LitterBox's binding
	// table: BindWorker sets both before it publishes the node, and
	// only ResetTo, which unbinds every node, writes them after.
	clock *hw.Clock
	next  *CPUState
}

// BindWorker associates per-worker state with a worker clock. The
// engine calls this once per worker before any task runs on it. The
// binding table is a list of the bound states themselves, newest first
// (a later binding of a clock shadows an earlier one): binding
// allocates nothing. st therefore joins the table and must not be bound
// a second time, here or on another LitterBox, until ResetTo, which
// empties the table, has unbound it.
func (lb *LitterBox) BindWorker(clock *hw.Clock, st *CPUState) {
	if st.clock != nil {
		panic("litterbox: CPUState bound twice")
	}
	st.clock, st.next = clock, lb.cpus
	lb.cpus = st
}

// stateFor returns the state bound to cpu's worker, or nil. Hot paths
// resolve it once per call and pass it to procOf and abortedIn.
func (lb *LitterBox) stateFor(cpu *hw.CPU) *CPUState {
	for st := lb.cpus; st != nil; st = st.next {
		if st.clock == cpu.Clock {
			return st
		}
	}
	return nil
}

// ProcFor resolves the kernel process context for syscalls issued on
// cpu: the bound worker proc, or the program-wide one.
func (lb *LitterBox) ProcFor(cpu *hw.CPU) *kernel.Proc { return lb.procOf(lb.stateFor(cpu)) }

func (lb *LitterBox) procOf(st *CPUState) *kernel.Proc {
	if st != nil && st.Proc != nil {
		return st.Proc
	}
	return lb.Proc
}

// DomainFor returns the fault domain bound to cpu's worker, or nil when
// faults on it abort the whole program.
func (lb *LitterBox) DomainFor(cpu *hw.CPU) *FaultDomain {
	if st := lb.stateFor(cpu); st != nil {
		return st.Domain
	}
	return nil
}

// workerName resolves the trace-attribution name of the worker bound to
// cpu ("" for the single-core main context).
func (lb *LitterBox) workerName(cpu *hw.CPU) string {
	if cpu == nil {
		return ""
	}
	return lb.stateFor(cpu).name()
}

// name is st's trace-attribution name; "" for no binding.
func (st *CPUState) name() string {
	if st == nil {
		return ""
	}
	return st.Name
}

// AbortedOn reports whether execution on cpu must stop: its domain
// faulted, or the whole program aborted.
func (lb *LitterBox) AbortedOn(cpu *hw.CPU) (*Fault, bool) { return lb.abortedIn(lb.stateFor(cpu)) }

func (lb *LitterBox) abortedIn(st *CPUState) (*Fault, bool) {
	if st != nil && st.Domain != nil {
		if f, ok := st.Domain.Aborted(); ok {
			return f, true
		}
	}
	return lb.Aborted()
}

// EnvCache memoises Prolog target-environment resolution per worker:
// the environment a switch from `from` into enclosure `encl` lands in
// is a pure function of the pair, so after the first program-wide
// resolution each worker answers from its own cache.
type EnvCache struct {
	m map[envCacheKey]*Env
	// epoch is the LitterBox view epoch the entries were resolved
	// under; a dynamic import moves the program's epoch and the next
	// lookup flushes the map. Without this, a worker that cached a
	// (from, enclosure) target before an import would keep entering the
	// pre-import environment — resolution and enforcement disagreeing
	// about the view.
	epoch  uint64
	hits   int64
	misses int64
}

type envCacheKey struct {
	from EnvID
	encl int
}

// NewEnvCache returns an empty per-worker environment cache.
func NewEnvCache() *EnvCache {
	return &EnvCache{m: make(map[envCacheKey]*Env)}
}

func (c *EnvCache) lookup(from EnvID, encl int, epoch uint64) *Env {
	if c.epoch != epoch {
		c.m = make(map[envCacheKey]*Env)
		c.epoch = epoch
	}
	e := c.m[envCacheKey{from, encl}]
	if e != nil {
		c.hits++
	} else {
		c.misses++
	}
	return e
}

func (c *EnvCache) store(from EnvID, encl int, e *Env, epoch uint64) {
	// Entries resolved under a superseded epoch are stale on arrival: a
	// dynamic import completed between lookup and store.
	if c.epoch == epoch {
		c.m[envCacheKey{from, encl}] = e
	}
}

// flush drops every entry.
func (c *EnvCache) flush() { clear(c.m) }

// Stats returns (hits, misses) since creation.
func (c *EnvCache) Stats() (hits, misses int64) { return c.hits, c.misses }

// Generation returns the snapshot view generation the cache's entries
// were resolved under — engine metrics surface it per worker, so a
// worker still answering from a pre-import generation is visible.
func (c *EnvCache) Generation() uint64 { return c.epoch }
