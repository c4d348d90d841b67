package engine

import (
	"errors"
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
)

func pushN(q *classQueue, class, n int, prefix string) {
	for i := 0; i < n; i++ {
		q.push(job{name: prefix, class: int32(class)})
	}
}

// TestClassQueueSWRRWeights pins the smooth-weighted-round-robin
// schedule: with default weights {8,4,2,1} and only classes 0 and 3
// backlogged, every 9 dequeues serve exactly 8 of class 0 and 1 of
// class 3 — weighted, so the low class progresses, but heavily skewed
// to the high one.
func TestClassQueueSWRRWeights(t *testing.T) {
	q := &classQueue{}
	pushN(q, 0, 16, "hi")
	pushN(q, 3, 16, "lo")

	counts := [NumClasses]int{}
	for i := 0; i < 9; i++ {
		j, ok := q.pop(defaultClassWeights, FIFO, 0)
		if !ok {
			t.Fatal("pop on non-empty queue failed")
		}
		counts[j.class]++
	}
	if counts[0] != 8 || counts[3] != 1 {
		t.Fatalf("9 dequeues served %v, want 8 of class 0 and 1 of class 3", counts)
	}
}

// TestClassQueueClearsPoppedSlots: pop (FIFO and LIFO) and steal
// leave no copy of the dequeued job in the lane's backing array, so a
// finished job's closure is unreachable once it runs.
func TestClassQueueClearsPoppedSlots(t *testing.T) {
	fn := func(*core.Task) error { return nil }
	q := &classQueue{}
	for i := 0; i < 4; i++ {
		q.push(job{name: "j", fn: fn})
	}
	lane := q.jobs[0].buf // the lane's backing array

	if _, ok := q.pop(defaultClassWeights, FIFO, 0); !ok {
		t.Fatal("FIFO pop failed")
	}
	if lane[0].fn != nil {
		t.Error("FIFO pop left the job in slot 0")
	}
	if _, ok := q.pop(defaultClassWeights, LIFOUnderOverload, 0); !ok {
		t.Fatal("LIFO pop failed")
	}
	if lane[3].fn != nil {
		t.Error("LIFO pop left the job in slot 3")
	}
	if _, ok := q.steal(); !ok {
		t.Fatal("steal failed")
	}
	if lane[1].fn != nil {
		t.Error("steal left the job in slot 1")
	}
	if lane[2].fn == nil {
		t.Error("the still-queued job in slot 2 was cleared")
	}
}

// TestLaneMatchesSliceModel drives one lane through pushes and front
// and back pops that wrap its ring and grow it past laneKeep, against a
// plain slice, then checks that a drained burst's array is dropped
// while a steady-state lane keeps its array and allocates nothing.
func TestLaneMatchesSliceModel(t *testing.T) {
	var l lane
	var model []int64
	x := uint64(0x9E3779B97F4A7C15)
	for step := 0; step < 20000; step++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch op := x % 8; {
		case op < 4 || len(model) == 0:
			l.push(job{arrival: int64(step)})
			model = append(model, int64(step))
		case op < 6:
			if got := l.popFront().arrival; got != model[0] {
				t.Fatalf("step %d: front pop %d, model %d", step, got, model[0])
			}
			model = model[1:]
		default:
			if got := l.popBack().arrival; got != model[len(model)-1] {
				t.Fatalf("step %d: back pop %d, model %d", step, got, model[len(model)-1])
			}
			model = model[:len(model)-1]
		}
		if l.n != len(model) {
			t.Fatalf("step %d: lane holds %d jobs, model %d", step, l.n, len(model))
		}
	}
	if len(l.buf) <= laneKeep {
		t.Fatalf("the walk never grew the lane past %d slots", laneKeep)
	}
	for l.n > 0 {
		l.popFront()
	}
	if l.buf != nil {
		t.Errorf("a drained lane kept %d slots", len(l.buf))
	}
	l.push(job{})
	if allocs := testing.AllocsPerRun(100, func() {
		l.push(job{})
		l.popFront()
	}); allocs != 0 || len(l.buf) > laneKeep {
		t.Errorf("a steady-state push and pop allocate %.0f objects over %d slots", allocs, len(l.buf))
	}
}

// TestClassQueueNoStarvationEitherWay: a backlog purely of one class
// drains regardless of its weight, and a flood of low-priority work
// cannot lock out a late-arriving high-priority job for more than its
// weighted share.
func TestClassQueueNoStarvationEitherWay(t *testing.T) {
	q := &classQueue{}
	pushN(q, 3, 8, "lo")
	for i := 0; i < 8; i++ {
		if _, ok := q.pop(defaultClassWeights, FIFO, 0); !ok {
			t.Fatal("lowest class starved with no competition")
		}
	}
	if _, ok := q.pop(defaultClassWeights, FIFO, 0); ok {
		t.Fatal("pop on empty queue succeeded")
	}

	// Flood class 3, then one class-0 arrival: it must surface within
	// the first two dequeues (SWRR gives class 0 the first slot of a
	// fresh cycle).
	q = &classQueue{}
	pushN(q, 3, 64, "flood")
	q.push(job{name: "urgent", class: 0})
	for i := 0; i < 2; i++ {
		j, _ := q.pop(defaultClassWeights, FIFO, 0)
		if j.class == 0 {
			return
		}
	}
	t.Fatal("class-0 job not served within 2 dequeues of a class-3 flood")
}

// TestClassQueueLIFOUnderOverload pins the mode switch: below the
// threshold the queue serves oldest-first; above it, newest-first.
func TestClassQueueLIFOUnderOverload(t *testing.T) {
	q := &classQueue{}
	for i := 0; i < 4; i++ {
		q.push(job{name: string(rune('a' + i)), class: 0})
	}
	// Depth 4 > threshold 2: newest first.
	j, _ := q.pop(defaultClassWeights, LIFOUnderOverload, 2)
	if j.name != "d" {
		t.Fatalf("overloaded LIFO pop = %q, want d (newest)", j.name)
	}
	j, _ = q.pop(defaultClassWeights, LIFOUnderOverload, 2)
	if j.name != "c" {
		t.Fatalf("overloaded LIFO pop = %q, want c", j.name)
	}
	// Depth 2 <= threshold 2: back to FIFO.
	j, _ = q.pop(defaultClassWeights, LIFOUnderOverload, 2)
	if j.name != "a" {
		t.Fatalf("shallow LIFO-mode pop = %q, want a (oldest)", j.name)
	}
	// Plain FIFO mode ignores the threshold entirely.
	q2 := &classQueue{}
	for i := 0; i < 4; i++ {
		q2.push(job{name: string(rune('a' + i)), class: 0})
	}
	j, _ = q2.pop(defaultClassWeights, FIFO, 2)
	if j.name != "a" {
		t.Fatalf("FIFO pop = %q, want a", j.name)
	}
}

// TestClassQueueStealOrder: thieves take the oldest job of the
// highest-priority non-empty class, from the front.
func TestClassQueueStealOrder(t *testing.T) {
	q := &classQueue{}
	q.push(job{name: "lo-old", class: 2})
	q.push(job{name: "hi-old", class: 1})
	q.push(job{name: "hi-new", class: 1})
	j, ok := q.steal()
	if !ok || j.name != "hi-old" {
		t.Fatalf("steal = %q, want hi-old (front of highest non-empty class)", j.name)
	}
	if q.len() != 2 {
		t.Fatalf("depth after steal = %d, want 2", q.len())
	}
}

// TestManualModeStepWorker pins the discrete-event contract the load
// generator builds on: StepWorker executes queued jobs synchronously
// with virtual-time accounting — StartVT = max(ArrivalVT, the worker's
// backlog horizon), CompletionVT = StartVT + measured service.
func TestManualModeStepWorker(t *testing.T) {
	prog := buildProg(t, core.Baseline, nil)
	e := New(prog, Opts{Workers: 1, QueueDepth: 8})
	defer e.Close()

	work := func(t *core.Task) error { t.Compute(1000); return nil }
	for _, spec := range []JobSpec{
		{Name: "a", ArrivalVT: 0, Fn: work},
		{Name: "b", ArrivalVT: 500, Fn: work},   // arrives while a runs
		{Name: "c", ArrivalVT: 99000, Fn: work}, // arrives long after b completes
	} {
		if err := e.Submit(spec); err != nil {
			t.Fatalf("Submit(%s): %v", spec.Name, err)
		}
	}

	a, ok := e.StepWorker(0)
	if !ok || a.Name != "a" {
		t.Fatalf("step 1 = %+v, want job a", a)
	}
	if a.StartVT != 0 || a.ServiceNs <= 0 || a.CompletionVT != a.StartVT+a.ServiceNs {
		t.Fatalf("job a timing inconsistent: %+v", a)
	}

	b, _ := e.StepWorker(0)
	if b.StartVT != a.CompletionVT {
		t.Fatalf("job b queued behind a must start at a's completion: start=%d, want %d", b.StartVT, a.CompletionVT)
	}
	if lat := b.CompletionVT - b.ArrivalVT; lat <= b.ServiceNs {
		t.Fatalf("queued job's latency %d must exceed its service %d (queueing delay)", lat, b.ServiceNs)
	}

	c, _ := e.StepWorker(0)
	if c.StartVT != c.ArrivalVT {
		t.Fatalf("job c arriving at an idle horizon must start at its arrival: start=%d, arrival=%d", c.StartVT, c.ArrivalVT)
	}

	if _, ok := e.StepWorker(0); ok {
		t.Fatal("StepWorker on a drained engine returned work")
	}
	if got := e.workers[0].vtFree; got != c.CompletionVT {
		t.Fatalf("vtFree = %d, want %d", got, c.CompletionVT)
	}

	// ResetVT rewinds the horizon (calibration → measurement boundary)
	// but keeps the learned service estimate.
	e.ResetVT()
	if got := e.workers[0].vtFree; got != 0 {
		t.Fatalf("vtFree after ResetVT = %d, want 0", got)
	}
}

// TestManualModeStepSteals: a worker with an empty queue steals from a
// backlogged sibling when stepped.
func TestManualModeStepSteals(t *testing.T) {
	prog := buildProg(t, core.Baseline, nil)
	e := New(prog, Opts{Workers: 2, QueueDepth: 8})
	defer e.Close()

	work := func(t *core.Task) error { t.Compute(1000); return nil }
	for i := 0; i < 2; i++ {
		if err := e.Submit(JobSpec{Pref: 0, Name: "w0-job", Fn: work}); err != nil {
			t.Fatal(err)
		}
	}
	r, ok := e.StepWorker(1)
	if !ok || !r.Stolen {
		t.Fatalf("idle worker 1 should have stolen from worker 0: %+v", r)
	}
	if counts := e.StealCounts(); counts[1] != 1 {
		t.Fatalf("StealCounts = %v, want worker 1 at 1", counts)
	}
}

// TestDeadlineAdmission pins the feasibility check: once the EWMA
// service estimate is warm, a deadline tighter than one predicted
// service time is rejected with ErrDeadline (and counted), a feasible
// one is admitted.
func TestDeadlineAdmission(t *testing.T) {
	prog := buildProg(t, core.Baseline, nil)
	e := New(prog, Opts{Workers: 1, QueueDepth: 8})
	defer e.Close()

	work := func(t *core.Task) error { t.Compute(1000); return nil }

	// Warm the predictor with one observed execution, then rewind the
	// horizon so the next arrival sees an idle worker.
	if err := e.Submit(JobSpec{Name: "warm", Fn: work}); err != nil {
		t.Fatal(err)
	}
	warm, _ := e.StepWorker(0)
	e.ResetVT()

	// Infeasible: the deadline is half the observed service time.
	err := e.Submit(JobSpec{Name: "tight", ArrivalVT: 0, DeadlineVT: warm.ServiceNs / 2, Fn: work})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("infeasible deadline: err = %v, want ErrDeadline", err)
	}
	if errors.Is(err, ErrBackpressure) || errors.Is(err, ErrClosed) {
		t.Fatal("ErrDeadline must not alias ErrBackpressure or ErrClosed")
	}

	// Feasible: twice the service estimate.
	if err := e.Submit(JobSpec{Name: "loose", ArrivalVT: 0, DeadlineVT: 2 * warm.ServiceNs, Fn: work}); err != nil {
		t.Fatalf("feasible deadline rejected: %v", err)
	}
	if r, ok := e.StepWorker(0); !ok || r.Name != "loose" {
		t.Fatalf("step = %+v, want job loose", r)
	}

	ms := e.Metrics()
	if ms[0].DeadlineRejects != 1 {
		t.Fatalf("DeadlineRejects = %d, want 1", ms[0].DeadlineRejects)
	}
}

// TestDeadlineMissAccounting: a job admitted on a cold (optimistic)
// predictor that then overruns its deadline is counted as a miss.
func TestDeadlineMissAccounting(t *testing.T) {
	prog := buildProg(t, core.Baseline, nil)
	e := New(prog, Opts{Workers: 1, QueueDepth: 8})
	defer e.Close()

	// Cold EWMA predicts zero service, so a 1ns deadline is admitted —
	// then the job computes 1000ns and misses it.
	err := e.Submit(JobSpec{
		Name: "miss", DeadlineVT: 1,
		Fn: func(t *core.Task) error { t.Compute(1000); return nil },
	})
	if err != nil {
		t.Fatalf("cold-predictor admission rejected: %v", err)
	}
	r, _ := e.StepWorker(0)
	if r.CompletionVT <= r.DeadlineVT {
		t.Fatalf("job unexpectedly met its deadline: %+v", r)
	}
	ms := e.Metrics()
	if ms[0].DeadlineMisses != 1 {
		t.Fatalf("DeadlineMisses = %d, want 1", ms[0].DeadlineMisses)
	}
}

// TestSubmitSpecClassClamp: out-of-range QoS classes clamp instead of
// corrupting the lane index.
func TestSubmitSpecClassClamp(t *testing.T) {
	prog := buildProg(t, core.Baseline, nil)
	e := New(prog, Opts{Workers: 1, QueueDepth: 8})
	defer e.Close()

	for _, class := range []int{-3, NumClasses + 5} {
		if err := e.Submit(JobSpec{Name: "clamped", Class: class, Fn: func(t *core.Task) error { return nil }}); err != nil {
			t.Fatalf("class %d: %v", class, err)
		}
	}
	r1, _ := e.StepWorker(0)
	r2, _ := e.StepWorker(0)
	if r1.Class != 0 || r2.Class != NumClasses-1 {
		t.Fatalf("clamped classes = %d, %d; want 0 and %d", r1.Class, r2.Class, NumClasses-1)
	}
}
