package bench

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
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

// TestCollectReproducible: every section but the cluster's, whose
// closed-loop clients race on the host, is a function of the code
// alone. A second smoke Collect of them marshals to the same bytes as
// the shared one, except for two fields of the scale section's merged
// trace that move between runs while every scale cell stays identical
// (ROADMAP, "A perf record that can tell signal from noise"): dropped,
// the events overwritten in the capped emission rings, which depends on
// how the host spreads events over its processor-local rings; and
// per-kind virtual_ns, which on the wiki moves by a few hundred ns as
// each worker's glue and proxy tasks interleave on the host. Of those
// two the test compares only the per-kind counts.
func TestCollectReproducible(t *testing.T) {
	a := smokeResults(t)
	b, err := Collect(Smoke, slices.DeleteFunc(Sections(), func(s string) bool { return s == "cluster" })...)
	if err != nil {
		t.Fatal(err)
	}
	ja, jb := reproducibleJSON(t, a), reproducibleJSON(t, b)
	if !bytes.Equal(ja, jb) {
		t.Errorf("two smoke runs differ:\n%s", firstDiff(ja, jb))
	}
}

// reproducibleJSON marshals r without its cluster sections and with the
// trace's dropped and per-kind virtual_ns zeroed, so its per-kind
// counts still compare.
func reproducibleJSON(t *testing.T, r *Results) []byte {
	t.Helper()
	c := *r
	c.Cluster, c.ClusterMigration = nil, nil
	if r.Trace != nil {
		tr := *r.Trace
		tr.Dropped = 0
		tr.Kinds = slices.Clone(tr.Kinds)
		for i := range tr.Kinds {
			tr.Kinds[i].CostNs = 0
		}
		c.Trace = &tr
	}
	blob, err := MarshalResults(&c)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// firstDiff returns the first differing line of a and b with its
// neighbours.
func firstDiff(a, b []byte) string {
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < min(len(la), len(lb)); i++ {
		if la[i] != lb[i] {
			lo := max(0, i-3)
			return fmt.Sprintf("line %d:\n%s\n- %s\n+ %s", i+1, strings.Join(la[lo:i], "\n"), la[i], lb[i])
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(la), len(lb))
}
