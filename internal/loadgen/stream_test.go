package loadgen

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/obs"
)

// TestEventStreamRepeats hashes every event one open-loop run emits, as
// the JSON-lines stream a tracer writes, and requires the same hash on
// every run of a case. The program's run queue decides which simulated
// goroutine runs next (core's run.go), so no event, and no event's
// place in the stream, may depend on how the host schedules goroutines:
// not the wiki's start-up, where each worker spawns its glue and
// db-proxy tasks, nor its teardown.
func TestEventStreamRepeats(t *testing.T) {
	const runs = 8
	for _, procs := range []int{1, 2} {
		for _, app := range []string{"wiki", "FastHTTP", "HTTP"} {
			for _, kind := range []core.BackendKind{core.MPK, core.VTX} {
				t.Run(fmt.Sprintf("%s/%v/procs=%d", app, kind, procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					hashes := make(map[string]int)
					for i := 0; i < runs; i++ {
						hashes[streamHash(t, app, kind)]++
					}
					if len(hashes) != 1 {
						t.Fatalf("%d distinct event streams in %d runs: %v", len(hashes), runs, hashes)
					}
				})
			}
		}
	}
}

// streamHash runs one short open-loop load on two workers, tears the
// target down, and returns the hash of its whole event stream.
func streamHash(t *testing.T, app string, kind core.BackendKind) string {
	t.Helper()
	tr := obs.New(16)
	h := sha256.New()
	tr.SetJSONL(h)
	tg, err := NewTarget(app, kind, EngineOpts{Workers: 2}, core.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(tg, Spec{Seed: 1, Requests: 100, Warmup: 8, OfferedLoad: 0.8}); err != nil {
		t.Fatal(err)
	}
	if err := tg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.SinkErr(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
