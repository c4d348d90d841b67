package bench

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// The checks below hold every section of the shared smoke run to its
// schema and its floors. Virtual-time floors are exact properties of
// the cost model; host-wall floors (churn, fast-path dispatch) measure
// the simulator itself and skip under the race detector.

// requireKeys fails unless v marshals to a JSON object carrying every
// key: the field names downstream tooling reads.
func requireKeys(t *testing.T, what string, v any, keys ...string) {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			t.Errorf("%s missing %q: %s", what, k, blob)
		}
	}
}

// keysOf returns m's keys in order.
func keysOf[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func TestScaleCheck(t *testing.T) {
	r := smokeResults(t)
	if len(r.Scale) == 0 {
		t.Fatal("no scale entries")
	}
	for _, e := range r.Scale {
		requireKeys(t, "scale entry", e, "app", "backend", "workers", "reqs_per_sec", "speedup")
		// Saturated discrete-event cells scale linearly and shed nothing.
		if e.Speedup < 0.99*float64(e.Workers) || e.Shed != 0 {
			t.Errorf("scale cell below 0.99x linear or shedding: %+v", e)
		}
	}
	if len(r.Scale) != len(ScaleApps)*len(ScaleBackends)*len(ScaleWorkerCounts) {
		t.Errorf("%d scale cells, want the full matrix", len(r.Scale))
	}
	tr := r.Trace
	if tr == nil || tr.Events == 0 {
		t.Fatal("empty trace")
	}
	// Every backend serves the same discrete-event schedule, so each
	// event kind counts the same on every backend.
	counts := map[string]map[string]int64{} // kind → backend → count
	for _, k := range tr.Kinds {
		if counts[k.Kind] == nil {
			counts[k.Kind] = map[string]int64{}
		}
		counts[k.Kind][k.Backend] = k.Count
	}
	for _, want := range []string{"prolog", "epilog", "syscall", "execute"} {
		if counts[want] == nil {
			t.Errorf("trace missing %s events: %v", want, keysOf(counts))
		}
	}
	for kind, byBackend := range counts {
		if len(byBackend) != len(ScaleBackends) {
			t.Errorf("%s events on %d backends, want %d: %v", kind, len(byBackend), len(ScaleBackends), byBackend)
		}
		for _, kb := range ScaleBackends {
			if n, base := byBackend[kb.String()], byBackend["baseline"]; n != base {
				t.Errorf("%s events: %s %d, baseline %d", kind, kb, n, base)
			}
		}
	}
}

func TestFastpathCheck(t *testing.T) {
	fp := smokeResults(t).Fastpath
	requireKeys(t, "fastpath", fp, "dispatch", "env_create", "contention")
	requireKeys(t, "fastpath dispatch", fp.Dispatch, "interp_ns_per_op", "table_ns_per_op", "speedup")
	if fp.EnvCreate.Clones <= 0 {
		t.Error("page-table sharing never cloned")
	}
	if !raceEnabled && fp.Dispatch.Speedup <= 1 {
		t.Errorf("verdict table slower than interpreter: %+v", fp.Dispatch)
	}
}

func TestRingCheck(t *testing.T) {
	r := smokeResults(t)
	if len(r.Ring) == 0 {
		t.Fatal("no ring entries")
	}
	speedup := map[string]float64{}
	for _, e := range r.Ring {
		requireKeys(t, "ring entry", e, "app", "backend", "depth", "unbatched_reqs_per_sec",
			"batched_reqs_per_sec", "speedup", "batches", "entries")
		if e.Depth != 32 {
			t.Errorf("unexpected ring depth: %+v", e)
		}
		if e.Batches <= 0 || e.Entries <= e.Batches {
			t.Errorf("ring never drained or never amortised: %+v", e)
		}
		speedup[e.Backend] = e.Speedup
	}
	// Virtual-time amortisation floors at depth 32 over /stream.
	if speedup["mpk"] < 2 {
		t.Errorf("MPK ring speedup below 2x: %v", speedup)
	}
	if speedup["vtx"] < 3 {
		t.Errorf("VTX ring speedup below 3x: %v", speedup)
	}
}

// checkChurnFloors holds the best cell per backend (per-cell numbers
// jitter with host load) to the instantiation floors: snapshot clones
// at least 5x and recycled instances at least 10x faster than a cold
// build on LB_MPK and LB_VTX.
func checkChurnFloors(t *testing.T, entries []ChurnEntry) {
	t.Helper()
	clone, recycled := map[string]float64{}, map[string]float64{}
	for _, e := range entries {
		clone[e.Backend] = max(clone[e.Backend], e.CloneSpeedup)
		recycled[e.Backend] = max(recycled[e.Backend], e.RecycledSpeedup)
	}
	for _, b := range []string{"mpk", "vtx"} {
		if clone[b] < 5 {
			t.Errorf("%s: clone speedup %.1fx below 5x floor", b, clone[b])
		}
		if recycled[b] < 10 {
			t.Errorf("%s: recycled speedup %.1fx below 10x floor", b, recycled[b])
		}
	}
}

func TestChurnCheck(t *testing.T) {
	c := smokeResults(t).Churn
	if len(c.Entries) == 0 {
		t.Fatal("no churn entries")
	}
	backends := map[string]bool{}
	for _, e := range c.Entries {
		requireKeys(t, "churn entry", e, "backend", "workers", "cold_us_per_instance",
			"clone_us_per_instance", "recycled_us_per_instance", "clone_speedup",
			"recycled_speedup", "clones", "recycles")
		if e.Clones <= 0 || e.Recycles <= 0 {
			t.Errorf("cell never cloned/recycled: %+v", e)
		}
		backends[e.Backend] = true
	}
	if got := keysOf(backends); !slices.Equal(got, []string{"baseline", "cheri", "mpk", "vtx"}) {
		t.Errorf("churn backends %v", got)
	}
	s := c.Sweep
	if !s.DigestsMatch {
		t.Error("warm sweep diverged from cold builds")
	}
	if s.Traces <= 0 || s.Clones <= 0 || s.Recycles <= 0 {
		t.Errorf("empty warm sweep: %+v", s)
	}
	if !raceEnabled {
		checkChurnFloors(t, c.Entries)
	}
}

// TestChurnCheckedInTrajectory holds the checked-in trajectory point's
// churn section to the acceptance sweep size and the same floors.
func TestChurnCheckedInTrajectory(t *testing.T) {
	blob, err := os.ReadFile("../../BENCH_10.json")
	if err != nil {
		t.Fatal(err)
	}
	var r Results
	if err := json.Unmarshal(blob, &r); err != nil {
		t.Fatal(err)
	}
	if r.Churn == nil {
		t.Fatal("BENCH_10.json has no churn section")
	}
	if !r.Churn.Sweep.DigestsMatch {
		t.Error("checked-in warm sweep diverged")
	}
	if r.Churn.Sweep.Traces < 300 {
		t.Errorf("checked-in sweep of %d traces is below the acceptance size", r.Churn.Sweep.Traces)
	}
	checkChurnFloors(t, r.Churn.Entries)
}

func TestLatencyCheck(t *testing.T) {
	rows := smokeResults(t).Latency
	if len(rows) == 0 {
		t.Fatal("no latency entries")
	}
	type key struct {
		app, backend   string
		workers        int
		load, deadline float64
		dequeue        string
	}
	cell := map[key]LatencyEntry{}
	apps, fastBackends := map[string]bool{}, map[string]bool{}
	var deadlineRows int
	for _, e := range rows {
		requireKeys(t, "latency entry", e, "app", "backend", "workers", "offered_load", "arrivals",
			"dequeue", "requests", "completed", "mean_service_ns", "p50_ns", "p99_ns", "p999_ns", "shed_rate")
		if !(e.P50Ns <= e.P99Ns && e.P99Ns <= e.P999Ns && e.P999Ns <= e.MaxNs) {
			t.Errorf("percentiles not monotone: %+v", e)
		}
		// Half load: no shedding and a bounded tail.
		if e.OfferedLoad == 0.5 {
			if e.ShedRate >= 0.01 {
				t.Errorf("shedding at half load: %+v", e)
			}
			if e.P99Ns >= 50*e.MeanServiceNs {
				t.Errorf("half-load p99 blown out: %+v", e)
			}
		}
		// Deadline-aware admission rejects infeasible work at overload.
		if e.DeadlineMult > 0 {
			deadlineRows++
			if e.DeadlineRejected <= 0 {
				t.Errorf("deadline admission rejected nothing: %+v", e)
			}
		}
		apps[e.Target] = true
		if e.Target == "FastHTTP" {
			fastBackends[e.Backend] = true
		}
		cell[key{e.Target, e.Backend, e.Workers, e.OfferedLoad, e.DeadlineMult, e.Dequeue}] = e
	}
	if deadlineRows == 0 {
		t.Error("no deadline-admission rows")
	}
	if got := keysOf(apps); !slices.Equal(got, []string{"FastHTTP", "HTTP", "wiki"}) {
		t.Errorf("latency apps %v", got)
	}
	if got := keysOf(fastBackends); !slices.Equal(got, []string{"baseline", "mpk", "vtx"}) {
		t.Errorf("FastHTTP latency backends %v", got)
	}
	// LIFO under overload beats FIFO's p50 at 1.5x load.
	for _, b := range []string{"baseline", "mpk", "vtx"} {
		fifo := cell[key{"FastHTTP", b, 1, 1.5, 0, "fifo"}]
		lifo := cell[key{"FastHTTP", b, 1, 1.5, 0, "lifo"}]
		if fifo.P50Ns == 0 || lifo.P50Ns >= fifo.P50Ns {
			t.Errorf("%s: LIFO p50 %d not below FIFO %d at 1.5x", b, lifo.P50Ns, fifo.P50Ns)
		}
	}
}

func TestClusterCheck(t *testing.T) {
	r := smokeResults(t)
	if len(r.Cluster) == 0 {
		t.Fatal("no cluster entries")
	}
	nodes := map[int]bool{}
	var best float64
	for _, e := range r.Cluster {
		requireKeys(t, "cluster entry", e, "app", "backend", "nodes", "workers_per_node",
			"reqs_per_sec", "speedup", "blobs_shipped", "blobs_deduped")
		nodes[e.Nodes] = true
		if e.Nodes == 8 {
			best = max(best, e.Speedup)
		}
		if e.Nodes > 1 && e.BlobsDeduped < e.BlobsShipped {
			t.Errorf("later joins shipped blobs instead of deduping: %+v", e)
		}
	}
	if got := keysOf(nodes); !slices.Equal(got, []int{1, 2, 4, 8}) {
		t.Errorf("node sweep %v", got)
	}
	t.Logf("best 8-node speedup %.2fx", best)
	if best < 0.8*8 {
		t.Errorf("best 8-node speedup %.2fx below 0.8x linear", best)
	}
	m := r.ClusterMigration
	requireKeys(t, "cluster_migration", m, "traces", "ops", "migrations", "dyn_imports", "digests_match")
	if !m.DigestsMatch {
		t.Error("migrated digests diverged")
	}
	if m.Migrations < 4*m.Traces {
		t.Errorf("%d migrations over %d traces: not every backend's world migrated", m.Migrations, m.Traces)
	}
}
