// Package engine executes enclosure workloads across N parallel
// virtual CPUs. The paper evaluates LitterBox on a single core; a real
// server runs GOMAXPROCS workers, so the engine models exactly the
// state a multi-core Go process keeps per core and what it shares:
//
//   - per worker: an hw.Clock (virtual time accrues per core), hardware
//     event counters, a kernel process context, a fault domain (a
//     protection violation aborts the request's worker, never its
//     siblings), and a Prolog environment cache;
//   - shared, read-mostly: the program image, package graph, enclosure
//     and environment tables, heap, and kernel namespaces.
//
// Work arrives on bounded per-worker run queues with preferred-worker
// affinity; a worker with an empty queue steals from the longest
// sibling queue (front first, oldest job — the fairness order), and a
// full engine sheds load instead of queueing unboundedly, like a
// saturated SYN backlog.
//
// The engine runs no goroutines of its own. Its caller steps it as a
// discrete-event simulation on the virtual clock (StepUntil): the
// worker whose backlog horizon is earliest executes its next job on the
// calling goroutine, so placement, stealing and every latency follow
// the cost model and read the same on every run.
//
// Admission and dequeue are latency-aware: every queue is segregated
// into weighted QoS classes (a low-priority enclosure cannot starve a
// high-priority one), jobs may carry a virtual-time deadline that
// admission checks against the queue's predicted drain (reject work
// that cannot meet its deadline rather than serving it late), and the
// dequeue order can switch to newest-first under overload
// (LIFOUnderOverload) — the mechanics the open-loop load generator in
// internal/loadgen measures.
package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/litterbox"
)

// ErrClosed reports a submission to a closed engine. It is a hard
// failure: the engine is gone and will never accept work again.
var ErrClosed = errors.New("engine: closed")

// ErrBackpressure reports an admission rejection with the engine still
// open: every run queue was at depth, so the submission was shed the
// way a saturated SYN backlog drops a connection. Unlike ErrClosed it
// is transient — a cluster balancer re-routes the request to a sibling
// node instead of failing it, and a retry against the same node may
// succeed once the queues drain. Callers distinguish the two with
// errors.Is; neither wraps the other.
var ErrBackpressure = errors.New("engine: backpressure: every run queue is full")

// ErrDeadline reports a deadline-aware admission rejection: the engine
// had queue space, but the predicted completion time — the candidate
// worker's virtual-time backlog plus its observed per-job service time
// — already misses the job's deadline. Rejecting at admission is
// cheaper than executing work whose result nobody will wait for; like
// ErrBackpressure it is transient and distinct from ErrClosed.
var ErrDeadline = errors.New("engine: deadline: predicted completion misses the job's deadline")

// Job is one unit of work: it runs on a fresh task pinned to whichever
// worker dequeues it.
type Job func(t *core.Task) error

// Opts configures an engine.
type Opts struct {
	// Workers is the number of parallel virtual CPUs (default 1).
	Workers int
	// QueueDepth bounds each worker's run queue (default 64). When
	// every queue is full, admission rejects — backpressure, not OOM.
	QueueDepth int
	// Dequeue selects the drain order (default FIFO; see
	// LIFOUnderOverload).
	Dequeue DequeueMode
	// LIFOThreshold is the per-worker queue depth above which
	// LIFOUnderOverload switches to newest-first (default
	// QueueDepth/4). Ignored under FIFO.
	LIFOThreshold int
	// ClassWeights are the smooth-weighted-round-robin shares of the
	// QoS classes (default {8,4,2,1}; class 0 is the highest
	// priority).
	ClassWeights [NumClasses]int
	// Manual is ignored: every engine is stepped by its caller
	// (StepWorker, StepUntil). It remains for callers that still set it.
	Manual bool
}

// JobSpec is a full submission: the job plus its admission metadata.
type JobSpec struct {
	// Pref is the preferred worker, whose queue Submit tries first.
	Pref int
	// Name labels the job's task.
	Name string
	// Index is the submitter's own number for the job (the load
	// generator's arrival index), handed back in StepResult.Index. It
	// must fit in 32 bits: a queued job keeps it as an int32.
	Index int
	// Class is the QoS class, clamped to [0, NumClasses); class 0 is
	// the highest priority.
	Class int
	// ArrivalVT is the job's scheduled arrival on the submitter's
	// virtual timeline, in ns. The engine uses it as the lower bound of
	// the job's virtual start time (a job cannot start before it
	// arrives) and measures deadline slack from it. Zero means "now".
	ArrivalVT int64
	// DeadlineVT is the job's absolute virtual-time deadline on the
	// same timeline as ArrivalVT; zero disables deadline admission.
	// Callers that set it must supply coherent ArrivalVT values —
	// admission predicts the completion as the candidate worker's
	// virtual backlog plus its EWMA service time and rejects with
	// ErrDeadline when the prediction misses.
	DeadlineVT int64
	// Fn is the job body.
	Fn Job
	// Done, when non-nil, runs on the executing worker after the job
	// finishes with the job's error.
	Done func(error)
}

type job struct {
	name     string
	fn       Job
	done     func(error) // nil for fire-and-forget
	index    int32
	class    int32
	arrival  int64
	deadline int64
}

// Engine is a pool of worker virtual CPUs with work-stealing,
// QoS-class-segregated run queues over one shared program.
type Engine struct {
	prog *core.Program
	opts Opts

	mu     sync.Mutex
	queues []*classQueue
	closed bool

	workers []*worker

	// warm, when non-nil, serves every job in its own snapshot-cloned
	// program instance drawn from a per-worker pool (core.WithWarmPool).
	// warmErr is why it is nil when the program asked for one.
	warm    *warmState
	warmErr error
}

// worker is one virtual CPU's engine-side state.
type worker struct {
	idx int
	ctx *core.WorkerCtx

	// Everything below is guarded by Engine.mu.
	requests int64
	steals   int64
	enqueued int64
	spills   int64
	rejected int64
	maxDepth int64
	// The Prolog cache hits and misses, the faults, the virtual time
	// and the hardware events of the jobs w ran on warm instances,
	// whose worker contexts are not w.ctx.
	warmHits, warmMisses, warmFaults int64
	warmClockNs                      int64
	warmCounters                     hw.Counters

	// vtFree is the worker's virtual-time backlog horizon: the
	// completion time of the last job it executed, on the submitters'
	// ArrivalVT timeline. A job dequeued by this worker starts at
	// max(job.arrival, vtFree). Deadline admission and StepUntil both
	// read it; without arrival timestamps it is the worker's cumulative
	// busy time.
	vtFree int64
	// ewmaNs is the exponentially weighted moving average of the
	// worker's virtual service time per job (α = 1/8) — the admission
	// predictor's estimate of one queue slot's drain cost.
	ewmaNs int64
	// deadlineRejected counts admissions refused with ErrDeadline with
	// this worker preferred; deadlineMissed counts executed jobs whose
	// completion overran their deadline anyway (admission predicted
	// too optimistically).
	deadlineRejected int64
	deadlineMissed   int64
}

// New builds an engine with opts.Workers parallel virtual CPUs over
// prog. Each worker owns its clock, counters, kernel proc, fault
// domain, and environment cache (core.WorkerCtx); everything else in
// prog is shared.
func New(prog *core.Program, opts Opts) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = prog.DefaultEngineWorkers()
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.LIFOThreshold <= 0 {
		opts.LIFOThreshold = opts.QueueDepth / 4
	}
	if opts.ClassWeights == ([NumClasses]int{}) {
		opts.ClassWeights = defaultClassWeights
	}
	e := &Engine{prog: prog, opts: opts, queues: make([]*classQueue, opts.Workers)}
	// Capture the warm template before binding any worker to the shared
	// program, so the snapshot sees the program exactly as Build left it.
	e.warm, e.warmErr = initWarm(prog, opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		e.queues[i] = &classQueue{}
		e.workers = append(e.workers, &worker{idx: i, ctx: prog.NewWorker(fmt.Sprintf("cpu%d", i))})
	}
	return e
}

// DequeueMode returns the configured drain order.
func (e *Engine) DequeueMode() DequeueMode { return e.opts.Dequeue }

// Workers returns the number of worker virtual CPUs.
func (e *Engine) Workers() int { return len(e.workers) }

// Submit is the engine's one admission entry point. It enqueues
// spec.Fn with affinity for worker spec.Pref, spilling to the shortest
// other queue when that one is full, and returns nil on admission or
// one of three typed errors, to be told apart with errors.Is:
//
//   - ErrBackpressure: every run queue is at depth. Transient — shed,
//     or re-route and retry.
//   - ErrDeadline: spec.DeadlineVT is set and deadline-aware admission
//     predicts the job cannot finish in time.
//   - ErrClosed: the engine was closed. Terminal.
//
// Jobs admitted before Close still execute (Close steps the queues
// dry), so a nil return guarantees spec.Done, when set, is called
// exactly once.
func (e *Engine) Submit(spec JobSpec) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.admitLocked(spec)
}

// admitLocked runs the admission decision: pick a queue (preferred
// worker first, spilling on overflow), apply the deadline feasibility
// check when the job carries one, and enqueue or reject with a typed
// error.
func (e *Engine) admitLocked(spec JobSpec) error {
	if e.closed {
		return ErrClosed
	}
	pref := ((spec.Pref % len(e.queues)) + len(e.queues)) % len(e.queues)
	class := spec.Class
	if class < 0 {
		class = 0
	} else if class >= NumClasses {
		class = NumClasses - 1
	}
	j := job{
		name: spec.Name, index: int32(spec.Index), fn: spec.Fn, done: spec.Done,
		class: int32(class), arrival: spec.ArrivalVT, deadline: spec.DeadlineVT,
	}

	if spec.DeadlineVT == 0 {
		// No deadline: legacy placement — preferred queue, else the
		// shortest sibling, else shed.
		if e.queues[pref].len() < e.opts.QueueDepth {
			e.pushLocked(pref, j, false)
			return nil
		}
		best, depth := -1, e.opts.QueueDepth
		for i := range e.queues {
			if e.queues[i].len() < depth {
				best, depth = i, e.queues[i].len()
			}
		}
		if best < 0 {
			e.workers[pref].rejected++
			return ErrBackpressure
		}
		e.pushLocked(best, j, true)
		return nil
	}

	// Deadline-aware: among queues with space, pick the earliest
	// predicted completion (preferring the affinity worker on ties) and
	// admit only if the prediction meets the deadline.
	best, bestDone := -1, int64(0)
	for off := 0; off < len(e.queues); off++ {
		i := (pref + off) % len(e.queues)
		if e.queues[i].len() >= e.opts.QueueDepth {
			continue
		}
		done := e.predictLocked(i, spec.ArrivalVT)
		if best < 0 || done < bestDone {
			best, bestDone = i, done
		}
	}
	if best < 0 {
		e.workers[pref].rejected++
		return ErrBackpressure
	}
	if bestDone > spec.DeadlineVT {
		e.workers[pref].deadlineRejected++
		return ErrDeadline
	}
	e.pushLocked(best, j, best != pref)
	return nil
}

// predictLocked estimates when a job arriving at arrival would complete
// on worker i: the worker's virtual backlog horizon, plus one EWMA
// service time per queued job ahead of it, plus its own. With no
// service history the estimate is optimistic (zero per-job cost), so a
// cold engine admits freely and the predictor tightens as it observes
// real work.
func (e *Engine) predictLocked(i int, arrival int64) int64 {
	w := e.workers[i]
	start := w.vtFree
	if arrival > start {
		start = arrival
	}
	return start + int64(e.queues[i].len()+1)*w.ewmaNs
}

func (e *Engine) pushLocked(i int, j job, spilled bool) {
	e.queues[i].push(j)
	w := e.workers[i]
	w.enqueued++
	if spilled {
		w.spills++
	}
	if d := int64(e.queues[i].len()); d > w.maxDepth {
		w.maxDepth = d
	}
}

// dequeueLocked takes worker w's next job: its own queue drained per
// the engine's policy (QoS-weighted, FIFO or LIFO-under-overload),
// else a steal from the longest sibling queue. Any sibling is a victim:
// StepUntil steps every virtually idle worker eagerly, so a sibling
// with queued work is by construction virtually busy.
func (e *Engine) dequeueLocked(w *worker) (job, bool, bool) {
	if j, ok := e.queues[w.idx].pop(e.opts.ClassWeights, e.opts.Dequeue, e.opts.LIFOThreshold); ok {
		return j, false, true
	}
	victim, depth := -1, 0
	for i := range e.queues {
		if i == w.idx {
			continue
		}
		if e.queues[i].len() > depth {
			victim, depth = i, e.queues[i].len()
		}
	}
	if victim >= 0 {
		if j, ok := e.queues[victim].steal(); ok {
			w.steals++
			return j, true, true
		}
	}
	return job{}, false, false
}

// exec runs one job on a fresh task pinned to w. A protection fault
// aborts only w's fault domain; the domain is reset afterwards so the
// worker serves its next job — net/http recovering a panicking handler.
// It returns the job's virtual start and completion on the arrival
// timeline plus the measured service time.
func (e *Engine) exec(w *worker, j job) (start, completion, service int64, err error) {
	var t *core.Task
	var inst *core.Program
	// The warm instance's worker's counts before the job, then the job's.
	var hits, misses, faults int64
	var counters, countersAfter hw.Counters
	clock := w.ctx.Clock()
	if e.warm != nil {
		// Warm admission: the job gets its own snapshot instance; a
		// failed clone falls back to the shared program below.
		if p, wt, werr := e.acquireWarm(w, j.name); werr == nil {
			inst, t = p, wt
			clock = t.Worker().Clock()
			hits, misses = t.Worker().EnvCache().Stats()
			faults = t.Worker().Domain().Faults()
			counters = t.Worker().Counters().Snapshot()
		}
	}
	if t == nil {
		t = e.prog.NewTaskOn(w.ctx, j.name)
	}
	clock0 := clock.Now()
	err = runJob(t, j.fn)
	service = clock.Now() - clock0
	if inst != nil {
		// Fold the job's cache and fault counts into w's before the
		// recycle, which may discard the instance.
		h, m := t.Worker().EnvCache().Stats()
		hits, misses, faults = h-hits, m-misses, t.Worker().Domain().Faults()-faults
		countersAfter = t.Worker().Counters().Snapshot()
		e.warm.pools[w.idx].Put(inst)
	} else {
		w.ctx.Domain().Reset()
	}

	e.mu.Lock()
	w.requests++
	w.warmHits += hits
	w.warmMisses += misses
	w.warmFaults += faults
	if inst != nil {
		w.warmClockNs += service
		w.warmCounters.AddDelta(countersAfter, counters)
	}
	start = w.vtFree
	if j.arrival > start {
		start = j.arrival
	}
	completion = start + service
	w.vtFree = completion
	if w.ewmaNs == 0 {
		w.ewmaNs = service
	} else {
		w.ewmaNs += (service - w.ewmaNs) / 8
	}
	if j.deadline > 0 && completion > j.deadline {
		w.deadlineMissed++
	}
	e.mu.Unlock()

	if j.done != nil {
		j.done(err)
	}
	return start, completion, service, err
}

func runJob(t *core.Task, fn Job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if f, ok := r.(*litterbox.Fault); ok {
				err = f
				return
			}
			panic(r)
		}
	}()
	return fn(t)
}

// StepResult is one stepped execution: the job's identity and its
// virtual-time accounting on the submitters' ArrivalVT timeline.
type StepResult struct {
	Worker int
	Name   string
	Index  int // JobSpec.Index
	Class  int
	Stolen bool

	ArrivalVT    int64 // scheduled arrival (JobSpec.ArrivalVT)
	DeadlineVT   int64 // absolute deadline, 0 = none
	StartVT      int64 // max(ArrivalVT, worker's prior backlog horizon)
	CompletionVT int64 // StartVT + ServiceNs; the worker's new horizon
	ServiceNs    int64 // measured virtual service time

	Err error // the job's error (a *litterbox.Fault on a protection fault)
}

// StepWorker dequeues worker i's next job per the engine's policy
// (stealing from the longest sibling queue when its own is empty) and
// executes it synchronously on worker i, on the calling goroutine. ok
// is false when no work is queued anywhere. The caller owns the
// virtual timeline: it should step a worker only when that worker is
// virtually idle, and eagerly, so queued work never sits while a worker
// idles — the discipline StepUntil implements. Distinct workers may be
// stepped from distinct goroutines at once; one worker may not.
func (e *Engine) StepWorker(i int) (StepResult, bool) {
	e.mu.Lock()
	w := e.workers[i]
	j, stolen, ok := e.dequeueLocked(w)
	e.mu.Unlock()
	if !ok {
		return StepResult{}, false
	}
	return e.step(w, j, stolen), true
}

// StepUntil is the engine's discrete-event loop: while some worker's
// backlog horizon is at or before T and work is queued, the worker with
// the earliest horizon (ties to the lowest index) executes its next job
// — the discipline that makes one serial loop equivalent to the workers
// running as truly parallel cores. each, when non-nil, sees every
// step's result; an error from it stops the loop and is returned.
// StepUntil returns nil once no worker is free at or before T or no
// work is queued.
func (e *Engine) StepUntil(T int64, each func(StepResult) error) error {
	for {
		e.mu.Lock()
		w := e.workers[0]
		for _, v := range e.workers[1:] {
			if v.vtFree < w.vtFree {
				w = v
			}
		}
		if w.vtFree > T {
			e.mu.Unlock()
			return nil
		}
		j, stolen, ok := e.dequeueLocked(w)
		e.mu.Unlock()
		if !ok {
			return nil // no queued work anywhere
		}
		r := e.step(w, j, stolen)
		if each != nil {
			if err := each(r); err != nil {
				return err
			}
		}
	}
}

// step executes one dequeued job on w and reports it.
func (e *Engine) step(w *worker, j job, stolen bool) StepResult {
	start, completion, service, err := e.exec(w, j)
	return StepResult{
		Worker: w.idx, Name: j.name, Index: int(j.index), Class: int(j.class), Stolen: stolen,
		ArrivalVT: j.arrival, DeadlineVT: j.deadline,
		StartVT: start, CompletionVT: completion, ServiceNs: service,
		Err: err,
	}
}

// ResetVT zeroes every worker's virtual backlog horizon while keeping
// the learned EWMA service estimates — the reset a load generator
// performs between its calibration phase and the measured run, so
// calibration work does not appear as backlog at virtual time zero.
func (e *Engine) ResetVT() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, w := range e.workers {
		w.vtFree = 0
	}
}

// Load returns the engine's queued jobs: admitted, not yet stepped.
// It is the balancer's tiebreak — cheap enough to consult on every
// routing decision, unlike a full Metrics snapshot.
func (e *Engine) Load() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for i := range e.queues {
		n += e.queues[i].len()
	}
	return n
}

// PredictVT is the engine's load on the virtual timeline: the earliest
// predicted completion, over its workers, of a job arriving now — the
// deadline-admission predictor (predictLocked) at arrival zero. It
// counts queued work at each worker's learned service time, so work
// routed but not yet stepped weighs on the next routing decision.
func (e *Engine) PredictVT() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	best := e.predictLocked(0, 0)
	for i := 1; i < len(e.workers); i++ {
		best = min(best, e.predictLocked(i, 0))
	}
	return best
}

// QueueDepths returns every worker's instantaneous run-queue depth,
// indexed by worker.
func (e *Engine) QueueDepths() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int, len(e.queues))
	for i := range e.queues {
		out[i] = e.queues[i].len()
	}
	return out
}

// StealCounts returns every worker's cumulative steal count, indexed by
// worker.
func (e *Engine) StealCounts() []int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int64, len(e.workers))
	for i, w := range e.workers {
		out[i] = w.steals
	}
	return out
}

// Close stops admission, steps every queued job to completion on the
// calling goroutine, and releases the warm pools. It is idempotent.
// Like StepUntil it must not run while another goroutine steps the
// engine.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	_ = e.StepUntil(math.MaxInt64, nil)
	e.closeWarm()
}
