package fasthttp

import (
	"sync"

	"github.com/litterbox-project/enclosure/internal/core"
)

// engineWorker is one worker's FastHTTP state: its reused buffer set
// (allocated in FastHTTP's arena) and its private channel to a trusted
// handler task pinned to the same worker — the secured-callback
// pattern, replicated per core so the handler's service time accrues
// on the clock of the core whose request it serves.
type engineWorker struct {
	st      ConnState
	reqs    chan Request
	handler *core.Handle
}

// NewConnHandler returns the per-connection service function FastHTTP
// runs on an engine worker — the connection is serviced *inside the
// server enclosure* (entered per connection with ServeConnArgs),
// forwarding parsed requests to that worker's trusted handler task —
// plus a stop function that shuts the per-worker handlers down and
// returns their first error. A sharded accept loop
// (engine.ServeOpts.Conn) and the open-loop load generator both run it;
// call stop after the work is drained.
func NewConnHandler(server *core.Enclosure, page []byte) (conn func(t *core.Task, fd int) error, stop func() error) {
	var mu sync.Mutex
	workers := make(map[*core.WorkerCtx]*engineWorker)

	workerFor := func(t *core.Task) *engineWorker {
		mu.Lock()
		defer mu.Unlock()
		w, ok := workers[t.Worker()]
		if !ok {
			w = &engineWorker{st: AllocConnState(t), reqs: make(chan Request, 16)}
			w.handler = t.Go("fasthttp-handler", func(ht *core.Task) error {
				return HandleLoop(ht, w.reqs, page)
			})
			workers[t.Worker()] = w
		}
		return w
	}

	conn = func(t *core.Task, fd int) error {
		w := workerFor(t)
		_, err := server.Call(t, ServeConnArgs{State: w.st, Conn: uint64(fd), Reqs: w.reqs})
		return err
	}
	stop = func() error {
		mu.Lock()
		defer mu.Unlock()
		var first error
		for _, w := range workers {
			close(w.reqs)
			if err := w.handler.Join(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return conn, stop
}
