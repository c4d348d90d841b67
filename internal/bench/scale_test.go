package bench

import (
	"reflect"
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/obs"
)

// TestScaleSpeedup holds net/http on Baseline and LB_MPK to linear
// scaling: aggregate throughput at W workers must reach 0.99·W times
// the 1-worker figure. Every arrival queues at once on a discrete-event
// engine, so no worker idles and the speedup is exact up to the
// boundary of the measured window. `enclosebench -table scale` runs the
// full matrix; TestScaleCheck holds every cell of it to the same floor.
func TestScaleSpeedup(t *testing.T) {
	for _, kind := range []core.BackendKind{core.Baseline, core.MPK} {
		one, err := scaleCell("HTTP", kind, 1)
		if err != nil {
			t.Fatalf("%v/1: %v", kind, err)
		}
		for _, w := range ScaleWorkerCounts[1:] {
			cell, err := scaleCell("HTTP", kind, w)
			if err != nil {
				t.Fatalf("%v/%d: %v", kind, w, err)
			}
			speedup := cell.ReqsPerSec / one.ReqsPerSec
			t.Logf("HTTP/%v: 1 worker %.0f reqs/s, %d workers %.0f reqs/s (%.2fx)",
				kind, one.ReqsPerSec, w, cell.ReqsPerSec, speedup)
			if speedup < 0.99*float64(w) {
				t.Errorf("HTTP/%v: %d-worker speedup %.2fx, want >= %.2fx", kind, w, speedup, 0.99*float64(w))
			}
		}
	}
}

// TestScaleCellsServeCorrectly exercises one cell of each app shape on
// a confining backend — the engine wiring must deliver byte-identical
// responses (loadgen validates every one) while sharding requests
// across workers.
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
			t.Errorf("%s: %d arrivals shed below the queue bound", app, entry.Shed)
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

// TestScaleReproducible: the scale section is a function of the code
// alone — two smoke runs give identical cells (steals and queue depth
// included) and identical per-kind trace counts. Per-kind virtual_ns is
// not compared: on the wiki it moves by a few hundred ns between runs,
// as each worker's glue and proxy tasks interleave on the host, while
// every cell stays identical.
func TestScaleReproducible(t *testing.T) {
	a, err := Collect(Smoke, "scale")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(Smoke, "scale")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Scale, b.Scale) {
		t.Errorf("two scale runs differ:\n%+v\n%+v", a.Scale, b.Scale)
	}
	if ca, cb := kindCounts(a), kindCounts(b); !reflect.DeepEqual(ca, cb) {
		t.Errorf("two scale runs traced different events:\n%v\n%v", ca, cb)
	}
}

// kindCounts maps each traced (kind, backend) to its event count.
func kindCounts(r *Results) map[string]int64 {
	out := map[string]int64{}
	for _, k := range r.Trace.Kinds {
		out[k.Kind+"/"+k.Backend] = k.Count
	}
	return out
}
