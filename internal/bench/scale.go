package bench

import (
	"fmt"
	"strings"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
	"github.com/litterbox-project/enclosure/internal/loadgen"
)

// ScaleWorkerCounts is the virtual-CPU sweep of the scaling table.
var ScaleWorkerCounts = []int{1, 2, 4, 8}

// ScaleBackends are the backends the scaling table sweeps. LB_CHERI is
// a projection and stays out of the multi-core experiment.
var ScaleBackends = []core.BackendKind{core.Baseline, core.MPK, core.VTX}

// ScaleApps names the applications in the scaling table, in render order.
var ScaleApps = []string{"HTTP", "FastHTTP", "wiki"}

// ScaleRequests is the measured request count per cell, after
// loadgen's default warm-up.
const ScaleRequests = 240

// scaleQueueDepth bounds each worker's run queue above a cell's whole
// backlog (warm-up plus measured arrivals), so saturation never sheds.
const scaleQueueDepth = 512

// scaleKinds is the request kind each app serves in the sweep: the
// static page, and the wiki's page view.
var scaleKinds = map[string]string{"HTTP": "page", "FastHTTP": "page", "wiki": "view"}

// ScaleEntry is one cell of the scaling table: one application on one
// backend at one worker count.
type ScaleEntry struct {
	App        string  `json:"app"`
	Backend    string  `json:"backend"`
	Workers    int     `json:"workers"`
	ReqsPerSec float64 `json:"reqs_per_sec"`
	// Speedup is aggregate throughput relative to the same app and
	// backend at one worker.
	Speedup float64 `json:"speedup"`
	// Steals counts jobs executed by a worker other than the one the
	// arrival preferred, during the measured run.
	Steals int64 `json:"steals"`
	// MaxQueueDepth is the high-water run-queue depth across workers:
	// the saturated backlog each worker holds.
	MaxQueueDepth int64 `json:"max_queue_depth"`
	// Shed counts arrivals dropped by admission backpressure.
	Shed int64 `json:"shed"`
}

// scaleCell measures one (app, backend, workers) cell as a loadgen
// discrete-event run on a stepped engine. The offered load is far
// past capacity, so every arrival queues at once and every worker
// stays busy: throughput is the workers' aggregate virtual capacity,
// and the cell is the same on every run. Options apply to the cell's
// program.
func scaleCell(app string, kind core.BackendKind, workers int, opts ...core.Option) (entry ScaleEntry, err error) {
	tg, err := loadgen.NewTarget(app, kind, loadgen.EngineOpts{Workers: workers, QueueDepth: scaleQueueDepth}, opts...)
	if err != nil {
		return ScaleEntry{}, err
	}
	defer func() {
		if cerr := tg.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	res, err := loadgen.Run(tg, loadgen.Spec{
		Seed:        1,
		Requests:    ScaleRequests,
		OfferedLoad: 1e6,
		Mix:         []loadgen.MixEntry{{Kind: scaleKinds[app], Weight: 1}},
	})
	if err != nil {
		return ScaleEntry{}, err
	}
	return ScaleEntry{
		App:           app,
		Backend:       res.Backend,
		Workers:       res.Workers,
		ReqsPerSec:    res.ThroughputRPS,
		Steals:        res.Steals,
		MaxQueueDepth: engine.MaxQueueDepth(tg.Engine().Metrics()),
		Shed:          int64(res.Shed),
	}, nil
}

// runScale sweeps the full scaling matrix: every app × backend ×
// worker count, with speedups computed against each pair's one-worker
// cell. Options apply to every cell's program — pass
// core.WithTracer(tr) to collect one merged trace over the sweep.
func runScale(opts ...core.Option) ([]ScaleEntry, error) {
	var out []ScaleEntry
	base := make(map[string]float64) // app/backend → 1-worker reqs/s
	for _, app := range ScaleApps {
		for _, kind := range ScaleBackends {
			for _, w := range ScaleWorkerCounts {
				entry, err := scaleCell(app, kind, w, opts...)
				if err != nil {
					return nil, fmt.Errorf("bench: scale %s/%s/%d workers: %w", app, kind, w, err)
				}
				key := app + "/" + entry.Backend
				if w == 1 {
					base[key] = entry.ReqsPerSec
				}
				if b := base[key]; b > 0 {
					entry.Speedup = entry.ReqsPerSec / b
				}
				out = append(out, entry)
			}
		}
	}
	return out, nil
}

// renderScaleTable formats the scaling sweep.
func renderScaleTable(entries []ScaleEntry) string {
	var sb strings.Builder
	sb.WriteString("Scaling: aggregate throughput across engine workers (virtual CPUs).\n")
	sb.WriteString("Each cell queues every arrival at once on a discrete-event engine, so\n")
	sb.WriteString("throughput is the workers' virtual capacity; speedup is relative to\n")
	sb.WriteString("the same app and backend on one worker.\n\n")
	fmt.Fprintf(&sb, "%-10s %-10s %8s %12s %9s %8s %9s %6s\n",
		"App", "Backend", "Workers", "reqs/s", "speedup", "steals", "maxdepth", "shed")
	var prev string
	for _, e := range entries {
		key := e.App + "/" + e.Backend
		if prev != "" && key != prev {
			sb.WriteByte('\n')
		}
		prev = key
		fmt.Fprintf(&sb, "%-10s %-10s %8d %12.0f %8.2fx %8d %9d %6d\n",
			e.App, e.Backend, e.Workers, e.ReqsPerSec, e.Speedup, e.Steals, e.MaxQueueDepth, e.Shed)
	}
	return sb.String()
}
