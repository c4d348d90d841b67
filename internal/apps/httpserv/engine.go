package httpserv

import (
	"sync"

	"github.com/litterbox-project/enclosure/internal/core"
)

// NewConnHandler returns the per-connection service function the
// net/http benchmark runs on an engine worker: the same per-request
// trace as the serial Serve loop, dispatching into the shared handler
// enclosure. Each worker lazily allocates its own reused buffer set, so
// workers never contend on connection state. The open-loop load
// generator and the cluster's nodes (cluster.Node.Handle) both run it,
// injecting each connection into the executing worker's process.
func NewConnHandler(handler *core.Enclosure) func(t *core.Task, fd int) error {
	var mu sync.Mutex
	states := make(map[*core.WorkerCtx]ConnState)
	return func(t *core.Task, fd int) error {
		mu.Lock()
		st, ok := states[t.Worker()]
		if !ok {
			st = AllocConnState(t)
			states[t.Worker()] = st
		}
		mu.Unlock()
		_, err := t.Call(Pkg, "ServeConn", st, uint64(fd), handler)
		return err
	}
}
