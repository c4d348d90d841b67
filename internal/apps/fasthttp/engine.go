package fasthttp

import "github.com/litterbox-project/enclosure/internal/core"

// engineWorker is one worker's FastHTTP state: its reused buffer set
// (allocated in FastHTTP's arena) and its private hand-off to a trusted
// handler task pinned to the same worker — the secured-callback
// pattern, replicated per core so the handler's service time accrues
// on the clock of the core whose request it serves.
type engineWorker struct {
	st      ConnState
	reqs    *core.Handoff[Request]
	handler *core.Handle
}

// NewConnHandler returns the per-connection service function FastHTTP
// runs on an engine worker — the connection is serviced *inside the
// server enclosure* (entered per connection with ServeConnArgs),
// forwarding parsed requests to that worker's trusted handler task —
// plus a stop function that shuts the per-worker handlers down and
// returns their errors joined. The open-loop load generator and the
// cluster's nodes (cluster.Node.Handle) both run it; call stop after
// the work is drained. On a warm instance's worker the handler lives
// for one request (core.PerWorker).
func NewConnHandler(server *core.Enclosure, page []byte) (conn func(t *core.Task, fd int) error, stop func() error) {
	workers := core.NewPerWorker(func(t *core.Task) *engineWorker {
		w := &engineWorker{st: AllocConnState(t), reqs: core.NewHandoff[Request](16)}
		w.handler = t.Go("fasthttp-handler", func(ht *core.Task) error {
			return HandleLoop(ht, w.reqs, page)
		})
		return w
	}, func(t *core.Task, w *engineWorker) error {
		w.reqs.Close(t)
		return w.handler.Join(t)
	})
	return workers.Conn(func(t *core.Task, w *engineWorker, fd int) error {
		_, err := server.Call(t, ServeConnArgs{State: w.st, Conn: uint64(fd), Reqs: w.reqs})
		return err
	}), workers.Stop
}
