package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/litterbox-project/enclosure/internal/obs"
)

// batchArrivals is the size of the round replayed with a JSON-lines
// event sink attached, to time syscall-ring batches: their events carry
// no cost, only virtual timestamps, so the span from a batch's submit
// to its completion is measured from the event stream.
const batchArrivals = 500

// batchSink sums the virtual time between each batch-submit event and
// the batch-complete event that follows it on the same worker.
type batchSink struct {
	open map[string]int64
	ns   int64
}

var (
	batchSubmit   = []byte(`"kind":"` + obs.KindBatchSubmit + `"`)
	batchComplete = []byte(`"kind":"` + obs.KindBatchComplete + `"`)
)

// Write receives one JSON-encoded event per call.
func (s *batchSink) Write(line []byte) (int, error) {
	submit := bytes.Contains(line, batchSubmit)
	if !submit && !bytes.Contains(line, batchComplete) {
		return len(line), nil
	}
	var e obs.Event
	if err := json.Unmarshal(line, &e); err != nil {
		return 0, err
	}
	if submit {
		s.open[e.Worker] = e.At
	} else if at, ok := s.open[e.Worker]; ok {
		s.ns += e.At - at
		delete(s.open, e.Worker)
	}
	return len(line), nil
}

// batchPass replays the first measured round's seed at reduced length
// with the sink attached and returns virtual batch ns per request.
func batchPass(sys system, tr *obs.Trace, seed int64) (float64, error) {
	sink := &batchSink{open: map[string]int64{}}
	tr.SetJSONL(sink)
	d, err := sys.run(roundSeed(seed, 0), batchArrivals)
	tr.SetJSONL(nil)
	if err == nil {
		err = tr.SinkErr()
	}
	if err == nil && d.Failed > 0 {
		err = fmt.Errorf("batch pass: %d of %d requests failed", d.Failed, d.Attempted)
	}
	if err != nil || d.Jobs == 0 {
		return 0, err
	}
	return float64(sink.ns) / float64(d.Jobs), nil
}

// layerInputs is what the traced run gathers.
type layerInputs struct {
	plain       pass               // untraced, profiled
	cpu, allocs map[string]float64 // module shares of host CPU and allocated bytes
	maxDepth    int64
	traceable   bool

	traced  pass         // with the tracer attached
	kinds   obs.Snapshot // events recorded over the traced pass's distinct rounds
	batchNs float64
	dropped int64
}

// layerMetrics derives every per_layer metric. Counts and virtual time
// are summed over a pass's distinct rounds and divided by the requests
// (or probe traces) those rounds executed.
func layerMetrics(in layerInputs) map[string]metric {
	m := map[string]metric{}
	for _, mod := range modules {
		m[mod+".host_self_pct"] = metric{in.cpu[mod], "%"}
		m[mod+".alloc_pct"] = metric{in.allocs[mod], "%"}
	}
	m["gc.cpu_pct"] = metric{100 * ratio(in.plain.gcCPU, in.plain.busyCPU), "%"}
	m["gc.cycles_per_kop"] = metric{ratio(1000*float64(in.plain.gcCycles), float64(in.plain.ops)), "count/kop"}

	var s det
	var meanLat float64
	for _, d := range in.plain.dets {
		s.Jobs += d.Jobs
		s.ProbeOps += d.ProbeOps
		s.ServiceNs += d.ServiceNs
		s.RespBytes += d.RespBytes
		s.Counts = addCounts(s.Counts, d.Counts)
		s.Steals += d.Steals
		s.Spills += d.Spills
		s.EnvHits += d.EnvHits
		s.EnvMiss += d.EnvMiss
		s.PoolHits += d.PoolHits
		s.PoolMiss += d.PoolMiss
		s.Discards += d.Discards
		s.Clones += d.Clones
		s.Recycles += d.Recycles
		s.Fallbacks += d.Fallbacks
		meanLat += float64(d.MeanLat) / float64(len(in.plain.dets))
	}
	jobs := float64(s.Jobs)
	perReq := func(x int64) float64 { return ratio(float64(x), jobs) }
	c := s.Counts
	count := func(name string, x int64) { m[name] = metric{perReq(x), "count/req"} }
	count("litterbox.switches_per_req", c.Switches)
	count("litterbox.transfers_per_req", c.Transfers)
	count("kernel.syscalls_per_req", c.Syscalls)
	count("seccomp.bpf_runs_per_req", c.BPFRuns)
	count("mpk.wrpkru_per_req", c.WRPKRUWrites)
	count("mpk.pkey_mprotect_per_req", c.PkeyMprotects)
	count("vtx.vm_exits_per_req", c.VMExits)
	count("vtx.guest_syscalls_per_req", c.GuestSyscalls)
	count("mem.pt_walks_per_req", c.PTWalks)
	count("ring.batches_per_req", c.RingBatches)
	m["ring.entries_per_batch"] = metric{ratio(float64(c.RingEntries), float64(c.RingBatches)), "count/batch"}

	// The tracer covered the traced pass's distinct rounds.
	var tracedJobs, tracedSvc int64
	for _, d := range in.traced.dets {
		tracedJobs += d.Jobs
		tracedSvc += d.ServiceNs
	}
	vt := func(name, kind string) {
		m[name] = metric{ratio(float64(kindCost(in.kinds, kind)), float64(tracedJobs)), "ns/req"}
	}
	vt("litterbox.vt_prolog_ns_per_req", obs.KindProlog)
	vt("litterbox.vt_epilog_ns_per_req", obs.KindEpilog)
	vt("litterbox.vt_execute_ns_per_req", obs.KindExecute)
	vt("litterbox.vt_transfer_ns_per_req", obs.KindTransfer)
	vt("kernel.vt_syscall_ns_per_req", obs.KindSyscall)
	m["ring.vt_batch_ns_per_req"] = metric{in.batchNs, "ns/req"}
	var enforce int64
	for _, k := range []string{obs.KindProlog, obs.KindEpilog, obs.KindExecute, obs.KindTransfer} {
		enforce += kindCost(in.kinds, k)
	}
	m["litterbox.vt_enforce_share"] = metric{ratio(float64(enforce), float64(tracedSvc)), "ratio"}

	m["engine.queue_wait_vt_us"] = metric{(meanLat - ratio(float64(s.ServiceNs), jobs)) / 1e3, "us"}
	m["engine.steals_per_kreq"] = metric{1000 * perReq(s.Steals), "count/kreq"}
	m["engine.spills_per_kreq"] = metric{1000 * perReq(s.Spills), "count/kreq"}
	m["engine.max_queue_depth"] = metric{float64(in.maxDepth), "count"}
	m["engine.env_cache_hit_ratio"] = metric{ratio(float64(s.EnvHits), float64(s.EnvHits+s.EnvMiss)), "ratio"}

	m["snapstart.pool_hit_ratio"] = metric{ratio(float64(s.PoolHits), float64(s.PoolHits+s.PoolMiss)), "ratio"}
	m["snapstart.clones_per_req"] = metric{perReq(s.Clones), "count/req"}
	m["snapstart.recycles_per_req"] = metric{perReq(s.Recycles), "count/req"}
	m["snapstart.discards"] = metric{float64(s.Discards), "count"}
	m["snapstart.cold_fallbacks"] = metric{float64(s.Fallbacks), "count"}

	m["simnet.resp_bytes_per_req"] = metric{perReq(s.RespBytes), "B/req"}
	m["probe.ops_per_trace"] = metric{perReq(s.ProbeOps), "ops/trace"}
	overhead := 0.0
	if in.traceable {
		overhead = 100 * (ratio(in.plain.hostRate(), in.traced.hostRate()) - 1)
	}
	m["trace.host_overhead_pct"] = metric{overhead, "%"}
	m["trace.dropped"] = metric{float64(in.dropped), "count"}
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
