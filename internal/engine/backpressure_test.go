package engine

import (
	"errors"
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

	// Wedge the only worker so queued work cannot drain.
	started := make(chan struct{})
	release := make(chan struct{})
	if err := e.Submit(JobSpec{Name: "wedge", Fn: func(t *core.Task) error {
		close(started)
		<-release
		return nil
	}}); err != nil {
		t.Fatalf("wedge submit: %v", err)
	}
	<-started

	// Fill the single queue slot.
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

	// Draining clears the backpressure: the same submission is admitted
	// and its done callback fires exactly once.
	close(release)
	e.Quiesce()
	var doneCalls atomic.Int64
	done := make(chan error, 1)
	if err := e.Submit(JobSpec{Name: "after-drain", Fn: nop, Done: func(err error) {
		doneCalls.Add(1)
		done <- err
	}}); err != nil {
		t.Fatalf("post-drain Submit = %v, want nil", err)
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
// Load counts queued plus executing jobs, QueueDepths and StealCounts
// report per-worker state.
func TestLoadAndQueueDepths(t *testing.T) {
	prog := buildProg(t, core.MPK, nil)
	e := New(prog, Opts{Workers: 2, QueueDepth: 4})
	defer e.Close()

	if got := e.Load(); got != 0 {
		t.Fatalf("idle Load = %d, want 0", got)
	}

	started := make(chan struct{}, 2)
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		if err := e.Submit(JobSpec{Pref: i, Name: "busy", Fn: func(t *core.Task) error {
			started <- struct{}{}
			<-release
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	<-started

	// Both workers executing, nothing queued: Load sees the busy pair.
	if got := e.Load(); got != 2 {
		t.Fatalf("busy Load = %d, want 2", got)
	}

	// Queue three more on worker 0: depths must attribute them.
	for i := 0; i < 3; i++ {
		if err := e.Submit(JobSpec{Name: "queued", Fn: nop}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Load(); got != 5 {
		t.Fatalf("Load = %d, want 5 (2 busy + 3 queued)", got)
	}
	depths := e.QueueDepths()
	if len(depths) != 2 || depths[0] != 3 || depths[1] != 0 {
		t.Fatalf("QueueDepths = %v, want [3 0]", depths)
	}
	if steals := e.StealCounts(); len(steals) != 2 {
		t.Fatalf("StealCounts len = %d, want 2", len(steals))
	}

	close(release)
	e.Quiesce()
	if got := e.Load(); got != 0 {
		t.Fatalf("post-quiesce Load = %d, want 0", got)
	}
}
