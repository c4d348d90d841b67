package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"github.com/litterbox-project/enclosure/internal/obs"
)

// vtRounds is the number of distinct seeded rounds an untraced pass
// cycles through. The virtual-clock metrics are means over them; every
// later round repeats one of them and must repeat its work exactly.
// The traced pass runs the first tracedRounds of the same rounds.
const (
	vtRounds     = 10
	tracedRounds = 3
)

// pass is one system measured over a window of rounds.
type pass struct {
	dets       []det // the distinct rounds, in order
	attempted  int64
	failed     int64
	unrepeated int       // later rounds whose work differed from their seed's first run
	rates      []float64 // operations per host CPU-second, one per round, at reference speed
	slowdowns  []float64 // the machine's slowdown against the reference, one per round
	kbPerOp    []float64
	allocsOp   []float64
	ops        int64     // requests, or probe operations
	gcCycles   uint64    // GC cycles during rounds
	gcCPU      float64   // GC CPU seconds during rounds
	busyCPU    float64   // non-idle CPU seconds during rounds
	live       []float64 // live heap after each round, bytes
}

// liveHeap forces a collection and returns the live heap in bytes.
// Caches that reset when full (the seccomp artifact cache) make it a
// sawtooth from round to round, so passes report its peak.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// host metric samples read around each round.
var hostSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readHost() []metrics.Sample {
	s := make([]metrics.Sample, len(hostSampleNames))
	for i, n := range hostSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// cpuSeconds is the host CPU time all of the process's threads have
// used. The kernel leaves out the time a hypervisor held the virtual CPU
// and the time other processes ran, so unlike wall time it does not
// grow when the machine's other tenants are busy.
func cpuSeconds() float64 { return clockSeconds(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadCPUSeconds is the CPU time the calling thread has used.
func threadCPUSeconds() float64 { return clockSeconds(3) } // CLOCK_THREAD_CPUTIME_ID

func clockSeconds(clock uintptr) float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return float64(ts.Nano()) / 1e9
}

func hostU(s []metrics.Sample, i int) uint64 {
	if s[i].Value.Kind() == metrics.KindUint64 {
		return s[i].Value.Uint64()
	}
	return 0
}

func hostF(s []metrics.Sample, i int) float64 {
	if s[i].Value.Kind() == metrics.KindFloat64 {
		return s[i].Value.Float64()
	}
	return 0
}

// measure runs rounds until the window has elapsed and at least the
// distinct rounds are done. afterDistinct, when non-nil, runs once right
// after the last distinct round, before the repeats; between, when
// non-nil, runs after every round, outside its accounting.
func measure(sys system, w workload, seed int64, window time.Duration, distinct int, afterDistinct func(), between func() error) (pass, error) {
	var p pass
	start := time.Now()
	for r := 0; r < distinct || time.Since(start) < window; r++ {
		m0 := readHost()
		mark, c0 := ref, cpuSeconds()
		d, err := sys.run(roundSeed(seed, r%distinct), w.round)
		cpu := cpuSeconds() - c0 - (ref.cpu - mark.cpu)
		m1 := readHost()
		if err != nil {
			return p, fmt.Errorf("round %d: %w", r, err)
		}
		if r < distinct {
			p.dets = append(p.dets, d)
			if r == distinct-1 && afterDistinct != nil {
				afterDistinct()
			}
		} else if first := p.dets[r%distinct]; d.work() != first.work() {
			if p.unrepeated == 0 {
				fmt.Fprintf(os.Stderr, "perfbench: round %d did different work than round %d:\n %+v\n %+v\n", r, r%distinct, first, d)
			}
			p.unrepeated++
		}
		p.attempted += d.Attempted
		p.failed += d.Failed
		p.ops += d.ops()
		ops := float64(d.ops())
		slow := ref.slowdown(mark)
		p.rates = append(p.rates, ops/cpu*slow)
		p.slowdowns = append(p.slowdowns, slow)
		p.kbPerOp = append(p.kbPerOp, float64(hostU(m1, 0)-hostU(m0, 0))/1024/ops)
		p.allocsOp = append(p.allocsOp, float64(hostU(m1, 1)-hostU(m0, 1))/ops)
		p.gcCycles += hostU(m1, 2) - hostU(m0, 2)
		p.gcCPU += hostF(m1, 3) - hostF(m0, 3)
		p.busyCPU += (hostF(m1, 4) - hostF(m0, 4)) - (hostF(m1, 5) - hostF(m0, 5))
		// Outside the round's accounting: a forced collection.
		p.live = append(p.live, float64(liveHeap()))
		if between != nil {
			if err := between(); err != nil {
				return p, err
			}
		}
	}
	return p, nil
}

// setup builds and warms the workload, returning the host CPU seconds
// it took at reference speed. Reference slices before and after it
// measure the machine's speed.
func setup(w workload, tr *obs.Trace) (system, float64, error) {
	mark := ref
	for i := 0; i < refAround; i++ {
		ref.slice()
	}
	r0, c0 := ref.cpu, cpuSeconds()
	sys, err := w.start(tr)
	cpu := cpuSeconds() - c0 - (ref.cpu - r0)
	for i := 0; i < refAround; i++ {
		ref.slice()
	}
	return sys, cpu / ref.slowdown(mark), err
}

// spareSetups is how many extra set-ups an end-to-end run times after
// each round.
const spareSetups = 3

// endToEnd is the untraced run: every end_to_end metric. Besides the
// system it measures, it sets the workload up spareSetups more times
// after every round, so the set-up samples spread over the whole window
// rather than one moment of the machine's load. setup_s is their median.
func endToEnd(w workload, seed int64, window time.Duration, log io.Writer) (report, error) {
	sys, first, err := setup(w, nil)
	if err != nil {
		return report{}, err
	}
	setups := []float64{first}
	spare := func() error {
		for i := 0; i < spareSetups; i++ {
			s, secs, err := setup(w, nil)
			if err != nil {
				return err
			}
			setups = append(setups, secs)
			if err := s.Close(); err != nil {
				return err
			}
		}
		return nil
	}
	p, err := measure(sys, w, seed, window, vtRounds, nil, spare)
	if cerr := sys.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return report{}, err
	}

	rep := newReport(p, log)
	raw := make([]float64, len(p.rates))
	for i, r := range p.rates {
		raw[i] = r / p.slowdowns[i]
	}
	fmt.Fprintf(log, "perfbench: %d rounds, median %.0f operations per CPU-second unscaled, median slowdown against the reference %.3f, %d set-ups\n", len(p.rates), median(raw), median(p.slowdowns), len(setups))
	vt := vtSummary(p.dets)
	rep.Metrics = map[string]metric{
		"setup_s":              {median(setups), "s"},
		"host_rps":             {p.hostRate(), "1/s"},
		"host_alloc_kb_per_op": {median(p.kbPerOp), "KiB/op"},
		"host_allocs_per_op":   {median(p.allocsOp), "count/op"},
		"host_live_heap_mb":    {quantile(p.live, 1) / (1 << 20), "MiB"},
		"vt_mean_us":           {vt.mean / 1e3, "us"},
		"vt_p99_us":            {vt.p99 / 1e3, "us"},
		"vt_p999_us":           {vt.p999 / 1e3, "us"},
		"vt_capacity_rps":      {vt.capacity, "1/s"},
		"ok_frac":              {1 - float64(rep.Failed)/float64(rep.Attempted), "ratio"},
	}
	return rep, nil
}

// newReport folds a pass's accounting into the result line.
func newReport(p pass, log io.Writer) report {
	rep := report{Correct: p.failed == 0 && p.unrepeated == 0, Attempted: p.attempted, Failed: p.failed}
	if p.unrepeated > 0 {
		fmt.Fprintf(log, "perfbench: %d rounds did not repeat their seed's work\n", p.unrepeated)
	}
	if rep.Attempted == 0 {
		rep.Attempted, rep.Correct = 1, false
	}
	return rep
}

type vtStats struct{ mean, p99, p999, capacity float64 }

// vtSummary averages each virtual-clock statistic over the distinct
// rounds: a tail percentile of one round is a handful of samples, so
// the mean over rounds is what stays put from seed to seed.
func vtSummary(ds []det) vtStats {
	var s vtStats
	for _, d := range ds {
		s.mean += float64(d.MeanLat)
		s.p99 += float64(d.P99)
		s.p999 += float64(d.P999)
		if d.MeanSvc > 0 {
			s.capacity += float64(d.Workers) * 1e9 / float64(d.MeanSvc)
		}
	}
	n := float64(len(ds))
	return vtStats{s.mean / n, s.p99 / n, s.p999 / n, s.capacity / n}
}

// perLayer is the traced run. An untraced pass under the CPU and
// allocation profilers gives host attribution; a second pass with an
// obs tracer attached gives virtual time by mechanism, and must
// reproduce the first pass's virtual-clock results and counts exactly.
func perLayer(w workload, seed int64, window time.Duration, log io.Writer) (report, error) {
	in, err := profiledPass(w, seed, window/2)
	if err != nil {
		return report{}, err
	}
	rep := newReport(in.plain, log)
	if in.traceable {
		if err := tracedPass(w, seed, window/2, &in); err != nil {
			return report{}, err
		}
		tp := newReport(in.traced, log)
		rep.Correct = rep.Correct && tp.Correct
		rep.Attempted += tp.Attempted
		rep.Failed += tp.Failed
		for i := range in.traced.dets {
			if in.plain.dets[i] != in.traced.dets[i] {
				rep.Correct = false
				fmt.Fprintf(log, "perfbench: tracing changed round %d:\n untraced %+v\n traced   %+v\n", i, in.plain.dets[i], in.traced.dets[i])
			}
		}
	}
	rep.Metrics = layerMetrics(in)
	return rep, nil
}

// profiledPass measures the untraced system under the CPU profiler and
// attributes host time and allocation to modules.
func profiledPass(w workload, seed int64, window time.Duration) (layerInputs, error) {
	var in layerInputs
	sys, _, err := setup(w, nil)
	if err != nil {
		return in, err
	}
	in.traceable = sys.traceable()
	var prof bytes.Buffer
	a0 := takeAllocSnapshot()
	if err = pprof.StartCPUProfile(&prof); err == nil {
		in.plain, err = measure(sys, w, seed, window, vtRounds, nil, nil)
		pprof.StopCPUProfile()
	}
	a1 := takeAllocSnapshot()
	in.maxDepth = sys.maxQueueDepth()
	if cerr := sys.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return in, err
	}
	in.allocs = allocShares(a0, a1)
	in.cpu, err = cpuShares(prof.Bytes())
	return in, err
}

// tracedPass measures the system again with an obs tracer attached,
// recording the events of its distinct rounds and timing ring batches.
func tracedPass(w workload, seed int64, window time.Duration, in *layerInputs) error {
	tr := obs.New(0)
	sys, _, err := setup(w, tr)
	if err != nil {
		return err
	}
	// Profile this pass too, so both passes pay for the profiler and the
	// host_rps difference is the tracer's alone.
	before := tr.Snapshot()
	if err = pprof.StartCPUProfile(io.Discard); err == nil {
		in.traced, err = measure(sys, w, seed, window, tracedRounds, func() { in.kinds = diffKinds(before, tr.Snapshot()) }, nil)
		pprof.StopCPUProfile()
	}
	if err == nil {
		in.batchNs, err = batchPass(sys, tr, seed)
	}
	in.dropped = tr.Snapshot().Dropped
	if cerr := sys.Close(); err == nil {
		err = cerr
	}
	return err
}

// diffKinds returns the per-kind event counts and virtual costs
// recorded between two snapshots.
func diffKinds(before, after obs.Snapshot) obs.Snapshot {
	base := map[obs.KindStat]obs.KindStat{}
	for _, k := range before.Kinds {
		base[obs.KindStat{Kind: k.Kind, Backend: k.Backend}] = k
	}
	var out obs.Snapshot
	for _, k := range after.Kinds {
		b := base[obs.KindStat{Kind: k.Kind, Backend: k.Backend}]
		out.Kinds = append(out.Kinds, obs.KindStat{Kind: k.Kind, Backend: k.Backend, Count: k.Count - b.Count, CostNs: k.CostNs - b.CostNs})
	}
	return out
}

func kindCost(s obs.Snapshot, kind string) int64 {
	var ns int64
	for _, k := range s.Kinds {
		if k.Kind == kind {
			ns += k.CostNs
		}
	}
	return ns
}

// hostRate is host_rps: the median over rounds of operations per host
// CPU-second at reference speed.
func (p pass) hostRate() float64 { return median(p.rates) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
