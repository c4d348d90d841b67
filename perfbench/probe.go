package main

import (
	"fmt"
	"math"
	"os"
	"sort"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/obs"
	"github.com/litterbox-project/enclosure/internal/probe"
)

// opsPerTrace is the probe trace length.
const opsPerTrace = 40

// probeSystem replays seeded differential traces on all four backends
// plus the pure-Go model. It has no tracer hook: the sweep builds its
// own worlds per trace.
type probeSystem struct{}

// probeWorld remembers one world's clock and counters at the start of
// its trace, so the replay's virtual time and counts can be read after
// the sweep without keeping the world alive.
type probeWorld struct {
	start    bool // first world of a trace
	clock    *hw.Clock
	counters *hw.Counters
	v0       int64
	c0       hw.CounterSnapshot
}

func startProbe(*obs.Trace) (system, error) {
	s := probeSystem{}
	if _, err := s.run(warmupSeed, 16); err != nil {
		return nil, fmt.Errorf("probe-sweep warm-up: %w", err)
	}
	return s, nil
}

func (probeSystem) traceable() bool      { return false }
func (probeSystem) maxQueueDepth() int64 { return 0 }
func (probeSystem) Close() error         { return nil }

// run sweeps n traces. A trace's virtual time is the sum over its four
// worlds of the clock advance from the first operation to the last.
func (probeSystem) run(seed int64, n int) (det, error) {
	var worlds []probeWorld
	stats, div, err := probe.SweepConfigured(uint64(seed), n, opsPerTrace, func(w *probe.World) {
		if w.Name == "baseline" {
			ref.slice() // between two traces
		}
		worlds = append(worlds, probeWorld{
			start: w.Name == "baseline", clock: w.Clock, counters: w.CPU.Counters,
			v0: w.Clock.Now(), c0: w.CPU.Counters.Snapshot(),
		})
	})
	if err != nil {
		return det{}, err
	}
	d := det{Attempted: int64(n), Jobs: int64(stats.Traces), ProbeOps: int64(stats.Ops), Workers: 1}
	if div != nil {
		d.Failed = int64(n - stats.Traces + 1)
		fmt.Fprintf(os.Stderr, "perfbench: probe divergence: %v\n", div)
	}
	var perTrace []int64
	for _, w := range worlds {
		if w.start || len(perTrace) == 0 {
			perTrace = append(perTrace, 0)
		}
		ns := w.clock.Now() - w.v0
		perTrace[len(perTrace)-1] += ns
		d.ServiceNs += ns
		d.Counts = addCounts(d.Counts, subCounts(w.counters.Snapshot(), w.c0))
	}
	if len(perTrace) != stats.Traces || len(perTrace) == 0 {
		return det{}, fmt.Errorf("probe-sweep: %d traces but %d world groups", stats.Traces, len(perTrace))
	}
	sort.Slice(perTrace, func(i, j int) bool { return perTrace[i] < perTrace[j] })
	d.P99, d.P999 = nearestRank(perTrace, 0.99), nearestRank(perTrace, 0.999)
	d.MeanLat = d.ServiceNs / int64(len(perTrace))
	d.MeanSvc = d.MeanLat
	return d, nil
}

// nearestRank returns the q-quantile of sorted samples, the rule
// loadgen uses for its latency percentiles.
func nearestRank(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
