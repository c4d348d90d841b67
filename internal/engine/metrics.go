package engine

import (
	"fmt"
	"strings"

	"github.com/litterbox-project/enclosure/internal/hw"
)

// WorkerMetrics is one worker's cumulative execution statistics.
// Benchmarks snapshot before and after a measurement window and diff;
// ClockNs is the worker's accrued virtual time, so aggregate throughput
// over a window is work done divided by the *maximum* per-worker clock
// delta — virtual wall-clock with the cores running in parallel.
type WorkerMetrics struct {
	Worker   int    `json:"worker"`
	Name     string `json:"name"`
	Requests int64  `json:"requests"`  // jobs executed
	Steals   int64  `json:"steals"`    // jobs taken from sibling queues
	Enqueued int64  `json:"enqueued"`  // jobs landed on this queue
	Spills   int64  `json:"spills"`    // jobs diverted here because the preferred queue was full
	Rejected int64  `json:"rejected"`  // submissions shed with this worker preferred
	MaxDepth int64  `json:"max_depth"` // high-water queue depth

	// DeadlineRejects counts submissions refused at admission with
	// ErrDeadline (this worker preferred); DeadlineMisses counts
	// executed jobs whose virtual completion overran their deadline
	// anyway — the admission predictor's false-accept rate.
	DeadlineRejects int64 `json:"deadline_rejects,omitempty"`
	DeadlineMisses  int64 `json:"deadline_misses,omitempty"`

	Depth   int    `json:"depth"`    // instantaneous queue depth
	Faults  int64  `json:"faults"`   // protection faults contained to this worker
	ClockNs int64  `json:"clock_ns"` // accrued virtual time
	EnvHits int64  `json:"env_hits"` // Prolog cache hits
	EnvMiss int64  `json:"env_miss"` // Prolog cache misses
	EnvGen  uint64 `json:"env_gen"`  // snapshot view generation the cache entries resolve under

	Counters hw.CounterSnapshot `json:"counters"` // hardware events on this worker
}

// Metrics snapshots every worker's statistics.
func (e *Engine) Metrics() []WorkerMetrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]WorkerMetrics, len(e.workers))
	for i, w := range e.workers {
		hits, misses := w.ctx.EnvCache().Stats()
		counters := w.ctx.Counters().Snapshot()
		counters.AddDelta(w.warmCounters, hw.Counters{})
		out[i] = WorkerMetrics{
			Worker:   i,
			Name:     w.ctx.Name(),
			Requests: w.requests,
			Steals:   w.steals,
			Enqueued: w.enqueued,
			Spills:   w.spills,
			Rejected: w.rejected,
			MaxDepth: w.maxDepth,

			DeadlineRejects: w.deadlineRejected,
			DeadlineMisses:  w.deadlineMissed,

			Depth:    e.queues[i].len(),
			Faults:   w.ctx.Domain().Faults() + w.warmFaults,
			ClockNs:  w.ctx.Clock().Now() + w.warmClockNs,
			EnvHits:  hits + w.warmHits,
			EnvMiss:  misses + w.warmMisses,
			EnvGen:   w.ctx.EnvCache().Generation(),
			Counters: counters,
		}
	}
	return out
}

// TotalRequests sums executed jobs across the snapshot.
func TotalRequests(ms []WorkerMetrics) int64 {
	var n int64
	for _, m := range ms {
		n += m.Requests
	}
	return n
}

// TotalSteals sums steals across the snapshot.
func TotalSteals(ms []WorkerMetrics) int64 {
	var n int64
	for _, m := range ms {
		n += m.Steals
	}
	return n
}

// MaxQueueDepth returns the highest per-worker queue high-water mark.
func MaxQueueDepth(ms []WorkerMetrics) int64 {
	var d int64
	for _, m := range ms {
		if m.MaxDepth > d {
			d = m.MaxDepth
		}
	}
	return d
}

// ElapsedNs returns the virtual wall-clock of a measurement window:
// the maximum per-worker clock delta between two snapshots. Workers
// run in parallel, so the slowest core bounds the window.
//
// Snapshots are matched by worker name, not slice position: a cluster
// node joining or leaving mid-window grows or shrinks the after
// snapshot, and matching by index would subtract one worker's baseline
// from another's clock. A worker present only in after (joined
// mid-window) counts from an explicit zero baseline; a worker present
// only in before (left mid-window) contributes nothing, as its clock
// stopped at some unobserved point inside the window.
func ElapsedNs(before, after []WorkerMetrics) int64 {
	base := make(map[string]int64, len(before))
	for i := range before {
		base[before[i].Name] = before[i].ClockNs
	}
	var max int64
	for i := range after {
		d := after[i].ClockNs - base[after[i].Name] // absent ⇒ zero baseline
		if d > max {
			max = d
		}
	}
	return max
}

// String renders a snapshot as one line per worker (debug helper).
func MetricsString(ms []WorkerMetrics) string {
	var sb strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&sb, "%s: reqs=%d steals=%d spills=%d rejected=%d maxdepth=%d faults=%d clock=%dns\n",
			m.Name, m.Requests, m.Steals, m.Spills, m.Rejected, m.MaxDepth, m.Faults, m.ClockNs)
	}
	return sb.String()
}
