package wiki

import (
	"errors"

	"github.com/litterbox-project/enclosure/internal/core"
)

// wikiWorker is one worker's replica of the Figure 5 topology: the
// reused ○B buffer set, a private request hand-off to a trusted glue
// task ○A, and a private query hand-off to a db-proxy task ○C with its
// own Postgres connection — all pinned to the worker so every piece of
// a request's work accrues on one virtual core's clock.
type wikiWorker struct {
	st    ConnState
	reqs  *core.Handoff[Request]
	glue  *core.Handle
	proxy *core.Handle
}

// NewConnHandler returns the per-connection service function the wiki
// runs on an engine worker. server and proxy are Program's ○B and ○C
// enclosures; each connection enters ○B with ServeConnArgs.
// Each worker gets its own glue and proxy tasks (and so its own
// database connection); on a warm instance's worker they live for one
// request (core.PerWorker). The returned stop function shuts the
// per-worker pipelines down and returns every worker error joined
// (errors.As and AsFault see through the join); call it after the work
// is drained. Shared by the open-loop load generator and the cluster's
// nodes (cluster.Node.Handle).
func NewConnHandler(server, proxy *core.Enclosure) (conn func(t *core.Task, fd int) error, stop func() error) {
	workers := core.NewPerWorker(func(t *core.Task) *wikiWorker {
		w := &wikiWorker{st: AllocConnState(t), reqs: core.NewHandoff[Request](16)}
		queries := core.NewHandoff[Query](16)
		w.proxy = t.Go("db-proxy", func(pt *core.Task) error {
			_, err := proxy.Call(pt, ProxyArgs{Queries: queries})
			return err
		})
		w.glue = t.Go("glue", func(gt *core.Task) error {
			return Glue(gt, w.reqs, queries)
		})
		return w
	}, func(t *core.Task, w *wikiWorker) error {
		w.reqs.Close(t) // glue exits and closes queries; the proxy drains and exits
		return errors.Join(w.glue.Join(t), w.proxy.Join(t))
	})
	return workers.Conn(func(t *core.Task, w *wikiWorker, fd int) error {
		_, err := server.Call(t, ServeConnArgs{State: w.st, Conn: uint64(fd), Reqs: w.reqs})
		return err
	}), workers.Stop
}
