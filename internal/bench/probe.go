package bench

import (
	"fmt"
	"strings"

	"github.com/litterbox-project/enclosure/internal/probe"
)

// ProbeSeed is the fixed seed the bench row (and CI) sweeps from; it is
// the same default the probe subcommand replays, so a row that reports
// a divergence is immediately reproducible.
const ProbeSeed = 0xEC705E

// ProbeBenchResult is one differential-probe sweep's coverage counters.
// Its host-side throughput is perfbench's probe-sweep workload, which
// takes repeated samples.
type ProbeBenchResult struct {
	Traces          int `json:"traces"`
	Ops             int `json:"ops"`
	Faults          int `json:"faults"`
	DynImportTraces int `json:"dyn_import_traces"`
	InjectionTraces int `json:"injection_traces"`
	Divergences     int `json:"divergences"` // always 0: a divergence fails the sweep
}

// runProbeBench sweeps n seeded traces through the differential oracle
// and reports its coverage. A divergence is an error that carries the
// shrunk, seed-addressed reproducer.
func runProbeBench(n, opsPerTrace int) (ProbeBenchResult, error) {
	stats, div, err := probe.Sweep(ProbeSeed, n, opsPerTrace)
	if err != nil {
		return ProbeBenchResult{}, err
	}
	if div != nil {
		return ProbeBenchResult{}, fmt.Errorf("differential probe found a divergence:\n%s", div)
	}
	return ProbeBenchResult{
		Traces:          stats.Traces,
		Ops:             stats.Ops,
		Faults:          stats.Faults,
		DynImportTraces: stats.DynImportTraces,
		InjectionTraces: stats.InjectionTraces,
	}, nil
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
	return b.String()
}
