package bench

// The warm-enclosure churn benchmark: how fast can a fresh, isolated
// program instance be produced? Serverless-style workloads pay this
// cost per request, so the sweep compares the three instantiation
// paths per backend and per instantiating-worker count:
//
//   cold     — Builder.Build from the source specs (link, policy
//              compile, backend install); the pre-snapshot baseline
//   clone    — Template.Instantiate: CoW memory clone plus shallow
//              copies of the verdict tables and kernel state
//   recycled — Template.Recycle of a used instance, reset in place at
//              the cost of what the tenant changed: memory reverts its
//              dirty pages, MPK replays its tag journal, VTX and CHERI
//              keep their unit while its generation is untouched (and
//              re-copy it otherwise), and the shared tables re-point at
//              the template's
//
// Times are host wall-clock (instantiation is host work; the virtual
// clock never advances during a build or clone). Every arm is
// validated functionally: the enclosure must compute the same result
// on a cold, cloned, and recycled instance. The result also carries a
// clone-vs-cold digest-equivalence probe sweep — the correctness gate
// the package tests enforce alongside the speedup floors.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/probe"
)

// ChurnColdBuilds is the cold-build sample count per cell; cold builds
// dominate the sweep's wall time, so fewer samples than the clone arms.
const ChurnColdBuilds = 12

// ChurnClones is the clone/recycle sample count per cell.
const ChurnClones = 48

// ChurnWorkerCounts are the instantiating-goroutine counts swept per
// backend — 1 isolates per-instance cost, 4 exposes contention on the
// template's space lock.
var ChurnWorkerCounts = []int{1, 4}

// ChurnEntry is one backend × workers row of `enclosebench -table churn`.
type ChurnEntry struct {
	Backend         string  `json:"backend"`
	Workers         int     `json:"workers"`
	ColdUs          float64 `json:"cold_us_per_instance"`
	CloneUs         float64 `json:"clone_us_per_instance"`
	RecycledUs      float64 `json:"recycled_us_per_instance"`
	CloneSpeedup    float64 `json:"clone_speedup"`
	RecycledSpeedup float64 `json:"recycled_speedup"`
	Clones          int64   `json:"clones"`   // template clone count after the cell
	Recycles        int64   `json:"recycles"` // template recycle count after the cell
}

// ChurnSweepEntry summarises the clone-vs-cold digest-equivalence
// probe sweep attached to a churn run.
type ChurnSweepEntry struct {
	Traces       int   `json:"traces"`
	Ops          int   `json:"ops"`
	Clones       int64 `json:"clones"`
	Recycles     int64 `json:"recycles"`
	DigestsMatch bool  `json:"digests_match"`
}

// ChurnResult is the full churn benchmark: the instantiation-cost
// table plus the digest-equivalence sweep.
type ChurnResult struct {
	Entries []ChurnEntry    `json:"entries"`
	Sweep   ChurnSweepEntry `json:"warm_sweep"`
}

// buildChurnProgram assembles the representative program the churn
// sweep instantiates: three packages with real variable footprints,
// and a "work" enclosure whose policy exercises the view compiler and
// the syscall filter, so a cold build pays linking, policy
// compilation, and backend installation.
func buildChurnProgram(kind core.BackendKind) (*core.Program, error) {
	b := core.NewBuilder(kind)
	b.Package(core.PackageSpec{
		Name: "main", Imports: []string{"libParse"},
		Vars:   map[string]int{"secret": 64, "conf": 256},
		Origin: "app", LOC: 120,
	})
	b.Package(core.PackageSpec{
		Name: "libParse", Imports: []string{"libFmt"},
		Vars:   map[string]int{"tables": 4096},
		Origin: "public", LOC: 800,
		Funcs: map[string]core.Func{
			"Work": func(t *core.Task, args ...core.Value) ([]core.Value, error) {
				if _, errno := t.Syscall(kernel.NrGetuid); errno != kernel.OK {
					return nil, fmt.Errorf("getuid: %v", errno)
				}
				return []core.Value{args[0].(int) * 2}, nil
			},
		},
	})
	b.Package(core.PackageSpec{
		Name: "libFmt", Vars: map[string]int{"pad": 512},
		Origin: "public", LOC: 300,
	})
	b.Enclosure("work", "main", "sys:proc",
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call("libParse", "Work", args...)
		}, "libParse", "libFmt")
	return b.Build()
}

// churnCheck runs the work enclosure on prog and verifies the result —
// the functional-equivalence gate every arm passes once.
func churnCheck(prog *core.Program) error {
	var got int
	err := prog.Run(func(t *core.Task) error {
		out, err := prog.MustEnclosure("work").Call(t, 21)
		if err != nil {
			return err
		}
		got = out[0].(int)
		return nil
	})
	if err != nil {
		return err
	}
	if got != 42 {
		return fmt.Errorf("bench: churn work returned %d, want 42", got)
	}
	return nil
}

// timeParallel runs f n times spread across workers goroutines and
// returns the host microseconds per call.
func timeParallel(workers, n int, f func() error) (float64, error) {
	var wg sync.WaitGroup
	var next atomic.Int64
	errCh := make(chan error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(n) {
				if err := f(); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	return float64(elapsed.Nanoseconds()) / 1e3 / float64(n), nil
}

// churnCell measures one backend × workers cell.
func churnCell(kind core.BackendKind, workers int) (ChurnEntry, error) {
	e := ChurnEntry{Backend: kind.String(), Workers: workers}

	// Untimed warmup: touch every code path once so neither arm pays
	// first-use costs (lazy allocations, map growth), then collect the
	// warmup garbage so a GC pause does not land inside a timed region.
	for i := 0; i < 2; i++ {
		if _, err := buildChurnProgram(kind); err != nil {
			return e, err
		}
	}
	runtime.GC()

	coldUs, err := timeParallel(workers, ChurnColdBuilds, func() error {
		_, err := buildChurnProgram(kind)
		return err
	})
	if err != nil {
		return e, fmt.Errorf("cold arm: %w", err)
	}
	e.ColdUs = coldUs

	base, err := buildChurnProgram(kind)
	if err != nil {
		return e, err
	}
	tmpl, err := base.Snapshot()
	if err != nil {
		return e, fmt.Errorf("snapshot: %w", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := tmpl.Instantiate(); err != nil {
			return e, err
		}
	}
	runtime.GC()
	cloneUs, err := timeParallel(workers, ChurnClones, func() error {
		_, err := tmpl.Instantiate()
		return err
	})
	if err != nil {
		return e, fmt.Errorf("clone arm: %w", err)
	}
	e.CloneUs = cloneUs

	// Recycle arm: each goroutine owns one instance and churns it.
	// The instances are used once (dirtying pages) before the sweep;
	// the timed region measures the steady-state Recycle cost a warm
	// pool pays between requests.
	insts := make([]*core.Program, workers)
	for i := range insts {
		if insts[i], err = tmpl.Instantiate(); err != nil {
			return e, err
		}
		if err := churnCheck(insts[i]); err != nil {
			return e, fmt.Errorf("pre-recycle check: %w", err)
		}
	}
	// One untimed recycle per instance warms the revert path, then a
	// GC barrier as above.
	for i := range insts {
		np, err := tmpl.Recycle(insts[i])
		if err != nil {
			return e, err
		}
		insts[i] = np
	}
	runtime.GC()
	var wg sync.WaitGroup
	var remaining atomic.Int64
	remaining.Store(int64(ChurnClones))
	errCh := make(chan error, workers)
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prog := insts[i]
			for remaining.Add(-1) >= 0 {
				np, err := tmpl.Recycle(prog)
				if err != nil {
					errCh <- err
					return
				}
				prog = np
			}
			insts[i] = prog
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return e, fmt.Errorf("recycle arm: %w", err)
	default:
	}
	e.RecycledUs = float64(elapsed.Nanoseconds()) / 1e3 / float64(ChurnClones)

	// Functional equivalence: a fresh clone and a many-times-recycled
	// instance must compute what the cold build computes.
	fresh, err := tmpl.Instantiate()
	if err != nil {
		return e, err
	}
	for _, p := range []*core.Program{base, fresh, insts[0]} {
		if err := churnCheck(p); err != nil {
			return e, err
		}
	}

	e.Clones, e.Recycles = tmpl.Stats()
	if e.CloneUs > 0 {
		e.CloneSpeedup = e.ColdUs / e.CloneUs
	}
	if e.RecycledUs > 0 {
		e.RecycledSpeedup = e.ColdUs / e.RecycledUs
	}
	return e, nil
}

// runChurn sweeps instantiation cost over the four backends ×
// ChurnWorkerCounts and attaches a digest-equivalence probe sweep of
// the given size (clone and recycled replays of every trace must
// digest-match the cold run on all four backends).
func runChurn(sweepTraces int) (ChurnResult, error) {
	var res ChurnResult
	for _, kind := range ProjectionBackends {
		for _, workers := range ChurnWorkerCounts {
			entry, err := churnCell(kind, workers)
			if err != nil {
				return res, fmt.Errorf("%v x%d: %w", kind, workers, err)
			}
			res.Entries = append(res.Entries, entry)
		}
	}

	var warm probe.Warm
	stats, div, err := probe.Sweep(42, sweepTraces, 40, probe.Arm{}, warm.Clone(), warm.Recycled())
	if err != nil {
		return res, fmt.Errorf("warm sweep: %w", err)
	}
	clones, recycles := warm.Stats()
	res.Sweep = ChurnSweepEntry{
		Traces:       stats.Traces,
		Ops:          stats.Ops,
		Clones:       clones,
		Recycles:     recycles,
		DigestsMatch: div == nil,
	}
	if div != nil {
		return res, fmt.Errorf("warm sweep diverged: %s", div)
	}
	return res, nil
}

// renderChurnTable formats the churn sweep.
func renderChurnTable(res ChurnResult) string {
	var sb strings.Builder
	sb.WriteString("Warm-enclosure churn: host cost per isolated program instance\n")
	fmt.Fprintf(&sb, "(%d cold builds, %d clones/recycles per cell; times are host wall-clock).\n\n",
		ChurnColdBuilds, ChurnClones)
	fmt.Fprintf(&sb, "%-10s %3s %12s %12s %12s %9s %9s\n",
		"", "×w", "cold", "clone", "recycled", "clone", "recycled")
	for _, e := range res.Entries {
		fmt.Fprintf(&sb, "%-10s %3d %10.0fµs %10.1fµs %10.1fµs %8.1fx %8.1fx\n",
			e.Backend, e.Workers, e.ColdUs, e.CloneUs, e.RecycledUs,
			e.CloneSpeedup, e.RecycledSpeedup)
	}
	fmt.Fprintf(&sb, "\nDigest sweep: %d traces x %d ops, %d clones, %d recycles — ",
		res.Sweep.Traces, res.Sweep.Ops, res.Sweep.Clones, res.Sweep.Recycles)
	if res.Sweep.DigestsMatch {
		sb.WriteString("clone and recycled replays digest-identical to cold on all four backends.\n")
	} else {
		sb.WriteString("DIGEST DIVERGENCE.\n")
	}
	return sb.String()
}
