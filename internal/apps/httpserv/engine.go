package httpserv

import (
	"sync"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
)

// ConnProgram builds the program NewConnHandler serves: main importing
// net/http and the handler package, and the "handler" enclosure over
// HandlerBody with no system calls. Options apply to the builder (a
// tracer, say).
func ConnProgram(kind core.BackendKind, opts ...core.Option) (*core.Program, error) {
	b := core.NewBuilder(kind, opts...)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{Pkg, HandlerPkg},
		Origin:  "app", LOC: 31,
	})
	Register(b)
	b.Enclosure("handler", "main", "sys:none", HandlerBody, HandlerPkg)
	return b.Build()
}

// NewConnHandler returns the per-connection service function the
// net/http benchmark runs on an engine worker: the same per-request
// trace as the serial Serve loop, dispatching into the shared handler
// enclosure. Each worker lazily allocates its own reused buffer set, so
// workers never contend on connection state. Shared by ServeEngine (the
// sharded accept loop) and the open-loop load generator (which injects
// connections directly).
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

// ServeEngine runs the net/http benchmark across an engine's worker
// virtual CPUs: a sharded accept loop (SO_REUSEPORT style) feeds each
// accepted connection to a worker, which services it with the
// NewConnHandler per-connection function.
func ServeEngine(e *engine.Engine, port uint16, handler *core.Enclosure) (*engine.Server, error) {
	return e.Serve(engine.ServeOpts{Port: port, Conn: NewConnHandler(handler)})
}
