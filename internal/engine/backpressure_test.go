package engine

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
)

// TestSubmitEBackpressureVsClosed pins the typed admission contract the
// cluster balancer depends on: a saturated engine reports
// ErrBackpressure (transient — re-route and retry), a closed engine
// reports ErrClosed (hard failure), and the two never alias.
func TestSubmitEBackpressureVsClosed(t *testing.T) {
	prog := buildProg(t, core.MPK, nil)
	e := New(prog, Opts{Workers: 1, QueueDepth: 1})

	// Fill the single queue slot; nothing steps it yet.
	if err := e.Submit(JobSpec{Name: "fill", Fn: nop}); err != nil {
		t.Fatalf("fill submit: %v", err)
	}

	// Saturated: typed backpressure, not a hard failure.
	err := e.Submit(JobSpec{Name: "overflow", Fn: nop})
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("saturated Submit = %v, want ErrBackpressure", err)
	}
	if errors.Is(err, ErrClosed) {
		t.Fatal("ErrBackpressure must not match ErrClosed")
	}

	// A second saturated submission sheds identically and counts the
	// rejection.
	if err := e.Submit(JobSpec{Name: "overflow2", Fn: nop}); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("saturated second Submit = %v, want ErrBackpressure", err)
	}

	// Stepping clears the backpressure: the same submission is admitted
	// and its done callback fires exactly once.
	if err := e.StepUntil(math.MaxInt64, nil); err != nil {
		t.Fatal(err)
	}
	var doneCalls atomic.Int64
	done := make(chan error, 1)
	if err := e.Submit(JobSpec{Name: "after-drain", Fn: nop, Done: func(err error) {
		doneCalls.Add(1)
		done <- err
	}}); err != nil {
		t.Fatalf("post-drain Submit = %v, want nil", err)
	}
	if err := e.StepUntil(math.MaxInt64, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("job error: %v", err)
	}
	if n := doneCalls.Load(); n != 1 {
		t.Fatalf("done callback ran %d times, want 1", n)
	}

	// Closed: the hard-failure error, distinguishable from saturation.
	e.Close()
	err = e.Submit(JobSpec{Name: "late", Fn: nop})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("closed Submit = %v, want ErrClosed", err)
	}
	if errors.Is(err, ErrBackpressure) {
		t.Fatal("ErrClosed must not match ErrBackpressure")
	}
}

// TestLoadAndQueueDepths exercises the balancer's cheap load signals:
// Load counts queued jobs, QueueDepths and StealCounts report
// per-worker state.
func TestLoadAndQueueDepths(t *testing.T) {
	prog := buildProg(t, core.MPK, nil)
	e := New(prog, Opts{Workers: 2, QueueDepth: 4})
	defer e.Close()

	if got := e.Load(); got != 0 {
		t.Fatalf("idle Load = %d, want 0", got)
	}
	// Three jobs prefer worker 0, one worker 1: depths attribute them.
	for _, pref := range []int{0, 0, 0, 1} {
		if err := e.Submit(JobSpec{Pref: pref, Name: "queued", Fn: nop}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Load(); got != 4 {
		t.Fatalf("Load = %d, want 4 queued", got)
	}
	if depths := e.QueueDepths(); len(depths) != 2 || depths[0] != 3 || depths[1] != 1 {
		t.Fatalf("QueueDepths = %v, want [3 1]", depths)
	}

	// Worker 1 drains its own job, then steals from worker 0.
	for i := 0; i < 2; i++ {
		if _, ok := e.StepWorker(1); !ok {
			t.Fatal("worker 1 found nothing to step")
		}
	}
	if depths := e.QueueDepths(); depths[0] != 2 || depths[1] != 0 {
		t.Fatalf("QueueDepths after worker 1's steps = %v, want [2 0]", depths)
	}
	if steals := e.StealCounts(); len(steals) != 2 || steals[0] != 0 || steals[1] != 1 {
		t.Fatalf("StealCounts = %v, want [0 1]", steals)
	}
	if err := e.StepUntil(math.MaxInt64, nil); err != nil {
		t.Fatal(err)
	}
	if got := e.Load(); got != 0 {
		t.Fatalf("stepped-dry Load = %d, want 0", got)
	}
}
