package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// reducedRound is each workload's round size in the test: big enough
// for every layer to see traffic, small enough to run in seconds.
var reducedRound = map[string]int{
	"fasthttp-mix": 600,
	"wiki-vtx":     600,
	"http-warm":    400,
	"probe-sweep":  20,
}

// benchSpec is the part of BENCHMARK.json the test checks against.
type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// e2e and layer run the two modes with a zero window: each pass runs
// just its distinct rounds.
func e2e(w workload, seed int64) (report, error)   { return endToEnd(w, seed, 0, io.Discard) }
func layer(w workload, seed int64) (report, error) { return perLayer(w, seed, 0, io.Discard) }

// runReduced runs one mode of a workload at its reduced round size and
// checks that every output was correct.
func runReduced(t *testing.T, name string, seed int64, mode func(workload, int64) (report, error)) report {
	t.Helper()
	w := workloads[name]
	w.round = reducedRound[name]
	rep, err := mode(w, seed)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("seed %d: correct=%v attempted=%d failed=%d", seed, rep.Correct, rep.Attempted, rep.Failed)
	}
	return rep
}

// checkNames asserts the report carries exactly the spec's metrics,
// each with its unit.
func checkNames(t *testing.T, rep report, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("%d metrics, spec names %d", len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s unit %q, spec says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

// seeded reports whether a metric is fixed by the seed: a virtual-clock
// value or a per-request count (host measurements vary run to run).
func seeded(name string, m metric) bool {
	if strings.HasPrefix(name, "vt_") || strings.Contains(name, ".vt_") || strings.Contains(name, "_vt_") {
		return true
	}
	switch m.Unit {
	case "count/req", "count/batch", "count/kreq", "B/req", "ops/trace":
		return true
	}
	return false
}

// compareSeeded returns the seeded metrics on which a and b differ.
func compareSeeded(a, b report) []string {
	var diff []string
	for name, m := range a.Metrics {
		if seeded(name, m) && b.Metrics[name].Value != m.Value {
			diff = append(diff, name)
		}
	}
	return diff
}

func TestSpecNamesEveryWorkload(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("spec names %d workloads, benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("spec workload %s is not implemented", w.Name)
		}
		if _, ok := reducedRound[w.Name]; !ok {
			t.Errorf("workload %s has no reduced round size", w.Name)
		}
	}
}

// TestWorkloadsReduced runs every workload at reduced length in both
// modes: every named metric is present with its unit, nothing fails,
// one seed reproduces its virtual-clock results and counts exactly, and
// another seed changes them.
func TestWorkloadsReduced(t *testing.T) {
	spec := readSpec(t)
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a := runReduced(t, name, 1, e2e)
			checkNames(t, a, spec.EndToEnd)
			if got := a.Metrics["ok_frac"].Value; got != 1 {
				t.Errorf("ok_frac = %v, want 1", got)
			}
			if diff := compareSeeded(a, runReduced(t, name, 1, e2e)); len(diff) > 0 {
				t.Errorf("seed 1 twice: end-to-end %v differ", diff)
			}
			if diff := compareSeeded(a, runReduced(t, name, 2, e2e)); len(diff) == 0 {
				t.Error("seeds 1 and 2 gave identical end-to-end virtual-clock metrics")
			}

			l := runReduced(t, name, 1, layer)
			checkNames(t, l, spec.PerLayer)
			if diff := compareSeeded(l, runReduced(t, name, 1, layer)); len(diff) > 0 {
				t.Errorf("seed 1 twice: per-layer %v differ", diff)
			}
			if diff := compareSeeded(l, runReduced(t, name, 2, layer)); len(diff) == 0 {
				t.Error("seeds 1 and 2 gave identical per-layer counts")
			}
		})
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "wiki-vtx", "--trace", "2"},
		{"--workload", "wiki-vtx", "--seconds", "0"},
	} {
		var out strings.Builder
		if err := run(args, &out, io.Discard); err == nil || out.Len() > 0 {
			t.Errorf("%v: err=%v, printed %q", args, err, out.String())
		}
	}
}

func TestHeaderInt(t *testing.T) {
	hdr := []byte("HTTP/1.1 200 OK\r\nContent-Length: 13312\r\n")
	if v, ok := headerInt(hdr, contentLength); !ok || v != 13312 {
		t.Fatalf("headerInt = %d, %v", v, ok)
	}
	if _, ok := headerInt([]byte("HTTP/1.1 200 OK\r\n"), contentLength); ok {
		t.Fatal("headerInt found a missing header")
	}
}

func TestAttributeInnermostRepoFrame(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "github.com/litterbox-project/enclosure/internal/kernel.(*Kernel).sysWrite", "github.com/litterbox-project/enclosure/internal/engine.(*Engine).exec"}, "kernel"},
		{[]string{"runtime.mallocgc", "github.com/litterbox-project/enclosure/internal/apps/fasthttp.serveConn"}, "apps"},
		{[]string{"bytes.Equal", "main.(*client).check"}, "client"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.schedule"}, "other"},
		{[]string{"github.com/litterbox-project/enclosure/internal/cheri.New"}, "other"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	if !isReference([]string{"main.(*refKernel).run", "main.(*refClock).slice", "main.(*reqSystem).NewRequest.func1"}) {
		t.Error("a reference slice was not recognised")
	}
	if isReference([]string{"main.(*client).check"}) {
		t.Error("the client was taken for the reference kernel")
	}
}
