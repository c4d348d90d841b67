package bench

import (
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/obs"
)

// TestScaleSpeedup holds net/http on Baseline and LB_MPK to
// near-linear scaling: aggregate throughput at 4 workers must exceed
// 3.5× the 1-worker figure. Steals follow the virtual horizon, so host
// load no longer decides which worker runs ahead; the speedup reads
// 3.87–4.00× with every host CPU saturated. One worker-count pair per
// backend keeps the test fast; `enclosebench -table scale` runs the full
// matrix.
func TestScaleSpeedup(t *testing.T) {
	for _, kind := range []core.BackendKind{core.Baseline, core.MPK} {
		one, err := scaleHTTP(kind, 1)
		if err != nil {
			t.Fatalf("%v/1: %v", kind, err)
		}
		four, err := scaleHTTP(kind, 4)
		if err != nil {
			t.Fatalf("%v/4: %v", kind, err)
		}
		speedup := four.ReqsPerSec / one.ReqsPerSec
		t.Logf("HTTP/%v: 1 worker %.0f reqs/s, 4 workers %.0f reqs/s (%.2fx)",
			kind, one.ReqsPerSec, four.ReqsPerSec, speedup)
		if speedup <= 3.5 {
			t.Errorf("HTTP/%v: 4-worker speedup %.2fx, want > 3.5x", kind, speedup)
		}
	}
}

// TestScaleCellsServeCorrectly exercises one cell of each app shape on
// a confining backend — the engine wiring must deliver byte-identical
// responses while sharding connections across workers.
func TestScaleCellsServeCorrectly(t *testing.T) {
	for _, app := range ScaleApps {
		entry, err := scaleCell(app, core.MPK, 2)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if entry.ReqsPerSec <= 0 {
			t.Errorf("%s: non-positive throughput %f", app, entry.ReqsPerSec)
		}
		if entry.Shed != 0 {
			t.Errorf("%s: %d connections shed under nominal load", app, entry.Shed)
		}
		t.Logf("%-9s 2 workers: %.0f reqs/s, steals %d, maxdepth %d",
			app, entry.ReqsPerSec, entry.Steals, entry.MaxQueueDepth)
	}
}

// TestTracingIsFreeInVirtualTime pins DESIGN §9's claim on one scale
// cell: attaching a tracer leaves the virtual-time throughput unchanged.
func TestTracingIsFreeInVirtualTime(t *testing.T) {
	plain, err := scaleCell("HTTP", core.MPK, 1)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := scaleCell("HTTP", core.MPK, 1, core.WithTracer(obs.New(1024)))
	if err != nil {
		t.Fatal(err)
	}
	if plain.ReqsPerSec != traced.ReqsPerSec {
		t.Errorf("traced HTTP/mpk cell %.2f reqs/s, untraced %.2f", traced.ReqsPerSec, plain.ReqsPerSec)
	}
}
