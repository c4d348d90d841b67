package bench

import (
	"fmt"
	"strings"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
	"github.com/litterbox-project/enclosure/internal/loadgen"
)

// LatencyEntry is one row of the latency table: an open-loop
// loadgen.Result plus the sweep knobs that produced it.
type LatencyEntry struct {
	loadgen.Result
	// DeadlineMult records deadline-aware admission (deadline =
	// arrival + mult × calibrated service); 0 = no deadlines.
	DeadlineMult float64 `json:"deadline_mult,omitempty"`
}

// latencyRow is one sweep point: offered load × arrival process ×
// dequeue policy × deadline setting.
type latencyRow struct {
	load     float64
	arrivals loadgen.ArrivalProcess
	dequeue  engine.DequeueMode
	deadline float64
}

// latencyRows is the offered-load sweep each FastHTTP backend/worker
// pair runs: sub-saturation Poisson and bursty points, then the
// >100%-load trio that separates the policies — plain FIFO, LIFO under
// overload, and FIFO with deadline-aware admission.
var latencyRows = []latencyRow{
	{load: 0.5, arrivals: loadgen.Poisson, dequeue: engine.FIFO},
	{load: 0.9, arrivals: loadgen.Poisson, dequeue: engine.FIFO},
	{load: 0.9, arrivals: loadgen.MMPP, dequeue: engine.FIFO},
	{load: 1.5, arrivals: loadgen.Poisson, dequeue: engine.FIFO},
	{load: 1.5, arrivals: loadgen.Poisson, dequeue: engine.LIFOUnderOverload},
	{load: 1.5, arrivals: loadgen.Poisson, dequeue: engine.FIFO, deadline: 8},
}

// latencyWorkerCounts is the engine sizes the FastHTTP sweep covers.
var latencyWorkerCounts = []int{1, 8}

// fastHTTPMix is the heavy-tail request mix: 90% cheap static pages at
// the highest QoS class, 10% syscall-dense /stream requests (an order
// of magnitude more virtual service) at a low class.
var fastHTTPMix = []loadgen.MixEntry{
	{Kind: "page", Weight: 9, Class: 0},
	{Kind: "stream", Weight: 1, Class: 2},
}

// latencyCell runs one open-loop measurement.
func latencyCell(app string, kind core.BackendKind, workers, requests int, row latencyRow, seed int64) (LatencyEntry, error) {
	tg, err := loadgen.NewTarget(app, kind, loadgen.EngineOpts{
		Workers: workers,
		Dequeue: row.dequeue,
	})
	if err != nil {
		return LatencyEntry{}, err
	}
	defer tg.Close()

	var mix []loadgen.MixEntry
	if app == "FastHTTP" {
		mix = append([]loadgen.MixEntry(nil), fastHTTPMix...)
	} else {
		for _, k := range tg.Kinds() {
			mix = append(mix, loadgen.MixEntry{Kind: k, Weight: 1})
		}
	}
	if row.deadline > 0 {
		for i := range mix {
			mix[i].DeadlineMult = row.deadline
		}
	}
	res, err := loadgen.Run(tg, loadgen.Spec{
		Seed:        seed,
		Requests:    requests,
		OfferedLoad: row.load,
		Arrivals:    row.arrivals,
		Mix:         mix,
	})
	if err != nil {
		return LatencyEntry{}, err
	}
	return LatencyEntry{Result: res, DeadlineMult: row.deadline}, nil
}

// runLatency sweeps the open-loop latency matrix: FastHTTP (heavy-tail
// mix) on every backend and worker count across the offered-load rows,
// plus single-point coverage of net/http under Poisson and the wiki
// under a session population. Seeds are fixed per cell, so the sweep
// is reproducible end to end.
func runLatency(requests int) ([]LatencyEntry, error) {
	var out []LatencyEntry
	seed := int64(1)
	for _, kind := range ScaleBackends {
		for _, workers := range latencyWorkerCounts {
			for _, row := range latencyRows {
				seed++
				entry, err := latencyCell("FastHTTP", kind, workers, requests, row, seed)
				if err != nil {
					return nil, fmt.Errorf("bench: latency FastHTTP/%s/%dw load %.1f: %w", kind, workers, row.load, err)
				}
				out = append(out, entry)
			}
		}
	}
	// Coverage points for the other apps: net/http at half load and
	// overload, the wiki under a think-time session population.
	httpRows := []latencyRow{
		{load: 0.5, arrivals: loadgen.Poisson, dequeue: engine.FIFO},
		{load: 1.5, arrivals: loadgen.Poisson, dequeue: engine.LIFOUnderOverload},
	}
	for _, row := range httpRows {
		seed++
		entry, err := latencyCell("HTTP", core.MPK, 8, requests, row, seed)
		if err != nil {
			return nil, fmt.Errorf("bench: latency HTTP load %.1f: %w", row.load, err)
		}
		out = append(out, entry)
	}
	seed++
	wikiEntry, err := latencyCell("wiki", core.MPK, 8, requests,
		latencyRow{load: 0.8, arrivals: loadgen.SessionThink, dequeue: engine.FIFO}, seed)
	if err != nil {
		return nil, fmt.Errorf("bench: latency wiki: %w", err)
	}
	out = append(out, wikiEntry)
	return out, nil
}

// renderLatencyTable formats the latency sweep.
func renderLatencyTable(entries []LatencyEntry) string {
	var sb strings.Builder
	sb.WriteString("Latency under open-loop load: per-request latency from scheduled arrival\n")
	sb.WriteString("to virtual completion (coordinated-omission-free: arrivals are drawn on\n")
	sb.WriteString("the virtual clock independent of completions). Offered load is relative\n")
	sb.WriteString("to calibrated capacity; shed requests are ErrBackpressure rejections.\n\n")
	fmt.Fprintf(&sb, "%-9s %-9s %3s %5s %-8s %-5s %3s %9s %9s %9s %9s %6s %7s\n",
		"App", "Backend", "W", "load", "arrivals", "deq", "ddl",
		"p50_us", "p99_us", "p99.9_us", "max_us", "shed%", "dl_rej")
	var prev string
	for _, e := range entries {
		key := e.Target + "/" + e.Backend + "/" + fmt.Sprint(e.Workers)
		if prev != "" && key != prev {
			sb.WriteByte('\n')
		}
		prev = key
		ddl := "-"
		if e.DeadlineMult > 0 {
			ddl = fmt.Sprintf("%.0fx", e.DeadlineMult)
		}
		fmt.Fprintf(&sb, "%-9s %-9s %3d %5.1f %-8s %-5s %3s %9.1f %9.1f %9.1f %9.1f %5.1f%% %7d\n",
			e.Target, e.Backend, e.Workers, e.OfferedLoad, e.Arrivals, e.Dequeue, ddl,
			float64(e.P50Ns)/1e3, float64(e.P99Ns)/1e3, float64(e.P999Ns)/1e3,
			float64(e.MaxNs)/1e3, 100*e.ShedRate, e.DeadlineRejected)
	}
	return sb.String()
}
