package bench

import (
	"fmt"
	"strings"
	"time"

	"github.com/litterbox-project/enclosure/internal/probe"
)

// ProbeSeed is the fixed seed the bench row (and CI) sweeps from; it is
// the same default the probe subcommand replays, so a row that reports
// a divergence is immediately reproducible.
const ProbeSeed = 0xEC705E

// ProbeBenchResult is one differential-probe sweep: coverage counters
// plus host-side throughput (the probe runs every trace on four
// backends, so ops/s measures the whole differential harness, not one
// backend).
type ProbeBenchResult struct {
	Traces          int     `json:"traces"`
	Ops             int     `json:"ops"`
	Faults          int     `json:"faults"`
	DynImportTraces int     `json:"dyn_import_traces"`
	InjectionTraces int     `json:"injection_traces"`
	Divergences     int     `json:"divergences"` // always 0: a divergence fails the sweep
	WallMS          float64 `json:"wall_ms"`
	OpsPerSec       float64 `json:"ops_per_sec"`
}

// runProbeBench sweeps n seeded traces through the differential oracle
// and reports coverage and throughput. A divergence is an error that
// carries the shrunk, seed-addressed reproducer.
func runProbeBench(n, opsPerTrace int) (ProbeBenchResult, error) {
	start := time.Now()
	stats, div, err := probe.Sweep(ProbeSeed, n, opsPerTrace)
	if err != nil {
		return ProbeBenchResult{}, err
	}
	if div != nil {
		return ProbeBenchResult{}, fmt.Errorf("differential probe found a divergence:\n%s", div)
	}
	wall := time.Since(start)
	out := ProbeBenchResult{
		Traces:          stats.Traces,
		Ops:             stats.Ops,
		Faults:          stats.Faults,
		DynImportTraces: stats.DynImportTraces,
		InjectionTraces: stats.InjectionTraces,
		WallMS:          float64(wall.Microseconds()) / 1000,
	}
	if wall > 0 {
		out.OpsPerSec = float64(stats.Ops) / wall.Seconds()
	}
	return out, nil
}

// renderProbeTable renders the probe row in the evaluation's table
// style.
func renderProbeTable(r ProbeBenchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Adversarial probe: differential sweep over baseline/LB_MPK/LB_VTX/LB_CHERI.\n\n")
	fmt.Fprintf(&b, "  %-26s %12s\n", "traces", fmt.Sprint(r.Traces))
	fmt.Fprintf(&b, "  %-26s %12s\n", "operations (x4 backends)", fmt.Sprint(r.Ops))
	fmt.Fprintf(&b, "  %-26s %12s\n", "faults provoked", fmt.Sprint(r.Faults))
	fmt.Fprintf(&b, "  %-26s %12s\n", "dynamic-import traces", fmt.Sprint(r.DynImportTraces))
	fmt.Fprintf(&b, "  %-26s %12s\n", "fault-injection traces", fmt.Sprint(r.InjectionTraces))
	fmt.Fprintf(&b, "  %-26s %12s\n", "divergences", fmt.Sprint(r.Divergences))
	fmt.Fprintf(&b, "  %-26s %12.1f\n", "wall ms", r.WallMS)
	fmt.Fprintf(&b, "  %-26s %12.0f\n", "ops/s", r.OpsPerSec)
	return b.String()
}
