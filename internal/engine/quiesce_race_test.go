package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
)

// TestQuiesceRacesCloseAndSubmit hammers the drain barrier the latency
// harness leans on: concurrent Submit, Quiesce, and one Close, under
// -race in CI. The invariant is the admission guarantee — every
// submission either returns an error and never runs its done callback,
// or returns nil and runs done exactly once, even when Close lands
// mid-flight. Quiesce must return (no deadlock) no matter how it
// interleaves with the drain.
func TestQuiesceRacesCloseAndSubmit(t *testing.T) {
	for round := 0; round < 8; round++ {
		prog := buildProg(t, core.Baseline, nil)
		e := New(prog, Opts{Workers: 2, QueueDepth: 8})

		var admitted, doneCalls, errored atomic.Int64
		var wg sync.WaitGroup

		// Submitters: race admission against the concurrent Close.
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 32; i++ {
					err := e.Submit(JobSpec{Pref: i, Name: "race", Fn: func(t *core.Task) error {
						t.Compute(200)
						return nil
					}, Done: func(error) { doneCalls.Add(1) }})
					switch {
					case err == nil:
						admitted.Add(1)
					case errors.Is(err, ErrBackpressure) || errors.Is(err, ErrClosed):
						errored.Add(1)
					default:
						t.Errorf("Submit returned untyped error: %v", err)
						return
					}
				}
			}()
		}

		// Quiescers: the barrier must come back regardless of timing.
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.Quiesce()
			}()
		}

		// One racing Close: admitted-before-Close jobs still drain.
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Close()
		}()

		wg.Wait()
		e.Close() // idempotent; joins the workers if the racer lost
		e.Quiesce()

		if doneCalls.Load() != admitted.Load() {
			t.Fatalf("round %d: %d admissions but %d done callbacks — the nil-return guarantee broke",
				round, admitted.Load(), doneCalls.Load())
		}
		if admitted.Load()+errored.Load() != 4*32 {
			t.Fatalf("round %d: submissions unaccounted for: %d admitted + %d errored != %d",
				round, admitted.Load(), errored.Load(), 4*32)
		}
	}
}
