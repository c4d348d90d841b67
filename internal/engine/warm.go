package engine

import (
	"fmt"

	"github.com/litterbox-project/enclosure/internal/core"
)

// warmState is the engine's warm-enclosure machinery, present when the
// program was built with core.WithWarmPool and captured cleanly: the
// snapshot template plus one bounded instance pool per worker, so
// admission never contends on a global free-list.
type warmState struct {
	t     *core.Template
	pools []*core.WarmPool
	names []string // per-worker context names, "warm-cpuN"
}

// initWarm captures prog as a snapshot template and builds the
// per-worker pools. A program that cannot be snapshot-cloned (MPK with
// virtualised keys, live fds, a live listener) leaves warm mode off
// and the engine falls back to running jobs on the shared program —
// the cold path — with the capture's error kept for WarmErr.
func initWarm(prog *core.Program, workers int) (*warmState, error) {
	size := prog.WarmPoolSize()
	if size <= 0 {
		return nil, nil
	}
	t, err := prog.Snapshot()
	if err != nil {
		return nil, err
	}
	ws := &warmState{t: t, pools: make([]*core.WarmPool, workers), names: make([]string, workers)}
	for i := range ws.pools {
		ws.pools[i] = t.NewPool(size)
		ws.names[i] = fmt.Sprintf("warm-cpu%d", i)
	}
	return ws, nil
}

// acquireWarm draws a warm program instance for worker w and a task on
// the worker context the instance owns. exec puts the instance back
// into w's pool, which recycles it (or discards it when full).
func (e *Engine) acquireWarm(w *worker, name string) (*core.Program, *core.Task, error) {
	prog, err := e.warm.pools[w.idx].Get()
	if err != nil {
		return nil, nil, err
	}
	return prog, prog.NewTaskOn(prog.InstanceWorker(e.warm.names[w.idx]), name), nil
}

// WarmTemplate returns the engine's snapshot template (nil when warm
// mode is off) — tests and benchmarks read its clone/recycle counters.
func (e *Engine) WarmTemplate() *core.Template {
	if e.warm == nil {
		return nil
	}
	return e.warm.t
}

// WarmErr returns why warm mode is off although the program asked for
// a warm pool (core.WithWarmPool): the snapshot capture's error. It is
// nil when warm mode is on or was never asked for.
func (e *Engine) WarmErr() error { return e.warmErr }

// WarmStats aggregates the per-worker pool counters. ok is false when
// warm mode is off.
func (e *Engine) WarmStats() (stats core.WarmPoolStats, ok bool) {
	if e.warm == nil {
		return core.WarmPoolStats{}, false
	}
	for _, p := range e.warm.pools {
		s := p.Stats()
		stats.Hits += s.Hits
		stats.Misses += s.Misses
		stats.Discards += s.Discards
	}
	return stats, true
}

// closeWarm drops every pooled instance.
func (e *Engine) closeWarm() {
	if e.warm == nil {
		return
	}
	for _, p := range e.warm.pools {
		p.Close()
	}
}
