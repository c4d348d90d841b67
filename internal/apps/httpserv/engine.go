package httpserv

import "github.com/litterbox-project/enclosure/internal/core"

// NewConnHandler returns the per-connection service function the
// net/http benchmark runs on an engine worker: the same per-request
// trace as the serial Serve loop, dispatching into the shared handler
// enclosure. Each worker lazily allocates its own reused buffer set, so
// workers never contend on connection state; on a warm instance's
// worker the buffers live for one request (core.PerWorker). The
// open-loop load generator and the cluster's nodes (cluster.Node.Handle)
// both run it, injecting each connection into the executing worker's
// process.
func NewConnHandler(handler *core.Enclosure) func(t *core.Task, fd int) error {
	return core.NewPerWorker(AllocConnState, nil).Conn(func(t *core.Task, st ConnState, fd int) error {
		_, err := t.Call(Pkg, "ServeConn", st, uint64(fd), handler)
		return err
	})
}
