package wiki

import (
	"errors"
	"sync"

	"github.com/litterbox-project/enclosure/internal/core"
)

// wikiWorker is one worker's replica of the Figure 5 topology: the
// reused ○B buffer set, a private request channel to a trusted glue
// task ○A, and a private query channel to a db-proxy task ○C with its
// own Postgres connection — all pinned to the worker so every piece of
// a request's work accrues on one virtual core's clock.
type wikiWorker struct {
	st    ConnState
	reqs  chan Request
	glue  *core.Handle
	proxy *core.Handle
}

// NewConnHandler returns the per-connection service function the wiki
// runs on an engine worker. server and proxy are Program's ○B and ○C
// enclosures; each connection enters ○B with ServeConnArgs.
// Each worker gets its own glue and proxy tasks (and so its own
// database connection). The returned stop function shuts the
// per-worker pipelines down and returns every worker error joined
// (errors.As and AsFault see through the join); call it after the work
// is drained. Shared by the open-loop load generator and any sharded
// accept loop (engine.ServeOpts.Conn).
func NewConnHandler(server, proxy *core.Enclosure) (conn func(t *core.Task, fd int) error, stop func() error) {
	var mu sync.Mutex
	workers := make(map[*core.WorkerCtx]*wikiWorker)

	workerFor := func(t *core.Task) *wikiWorker {
		mu.Lock()
		defer mu.Unlock()
		w, ok := workers[t.Worker()]
		if !ok {
			w = &wikiWorker{st: AllocConnState(t), reqs: make(chan Request, 16)}
			queries := make(chan Query, 16)
			w.proxy = t.Go("db-proxy", func(pt *core.Task) error {
				_, err := proxy.Call(pt, ProxyArgs{Queries: queries})
				return err
			})
			w.glue = t.Go("glue", func(gt *core.Task) error {
				return Glue(gt, w.reqs, queries)
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
		var errs []error
		for _, w := range workers {
			close(w.reqs) // glue exits and closes queries; the proxy drains and exits
			errs = append(errs, w.glue.Join(), w.proxy.Join())
		}
		return errors.Join(errs...)
	}
	return conn, stop
}
