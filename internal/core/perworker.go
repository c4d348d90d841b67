package core

import (
	"errors"
	"sync"
)

// PerWorker holds the state a connection handler keeps for each engine
// worker it serves on: reused buffers, hand-offs, helper tasks. It is
// the one place such state lives, so no handler keeps a map of its own.
//
// On a long-lived worker — one of the engine's own, over the shared
// program — the state is made by the worker's first connection and kept
// until Stop. A worker a warm snapshot instance owns (InstanceWorker)
// is long-lived too, but the state of one tenant must not reach the
// next: the recycle reverts the memory the buffers live in and resets
// the run queue the helper tasks wait on. There the state is made
// afresh for every connection and stopped when it is served.
type PerWorker[S any] struct {
	build func(t *Task) S
	stop  func(t *Task, s S) error // nil when the state holds nothing to stop

	mu    sync.Mutex
	kept  map[*WorkerCtx]S
	order []S // kept states in creation order, so Stop is the same on every run
}

// NewPerWorker returns a PerWorker whose state build makes on the task
// serving a connection and stop, when not nil, shuts down: on behalf of
// that task after a warm instance's connection, and of host code (a nil
// task) from Stop.
func NewPerWorker[S any](build func(t *Task) S, stop func(t *Task, s S) error) *PerWorker[S] {
	return &PerWorker[S]{build: build, stop: stop, kept: make(map[*WorkerCtx]S)}
}

// Conn returns a connection handler that calls serve with the state of
// the worker it runs on. On a warm instance's worker the state is
// stopped after serve returns or faults, and the stop's error is joined
// into the handler's.
func (pw *PerWorker[S]) Conn(serve func(t *Task, s S, fd int) error) func(t *Task, fd int) error {
	return func(t *Task, fd int) (err error) {
		if !t.perRequest() {
			return serve(t, pw.keptFor(t), fd)
		}
		s := pw.build(t)
		if pw.stop != nil {
			defer func() {
				if serr := pw.stop(t, s); serr != nil {
					err = errors.Join(err, serr)
				}
			}()
		}
		return serve(t, s, fd)
	}
}

// keptFor returns the kept state of t's worker, making it on the
// worker's first connection. A worker serves one connection at a time,
// so no other call makes the state while build runs.
func (pw *PerWorker[S]) keptFor(t *Task) S {
	pw.mu.Lock()
	s, ok := pw.kept[t.worker]
	pw.mu.Unlock()
	if ok {
		return s
	}
	s = pw.build(t)
	pw.mu.Lock()
	pw.kept[t.worker] = s
	pw.order = append(pw.order, s)
	pw.mu.Unlock()
	return s
}

// Stop stops and drops every kept state, in creation order, and
// returns their errors joined (nil when none failed). Call it after the
// engine has drained.
func (pw *PerWorker[S]) Stop() error {
	pw.mu.Lock()
	order := pw.order
	pw.order = nil
	clear(pw.kept)
	pw.mu.Unlock()
	if pw.stop == nil {
		return nil
	}
	var errs []error
	for _, s := range order {
		errs = append(errs, pw.stop(nil, s))
	}
	return errors.Join(errs...)
}

// perRequest reports whether t runs on the worker a warm instance owns,
// where a connection's state lives for that connection.
func (t *Task) perRequest() bool { return t.worker != nil && t.worker == t.prog.worker }
