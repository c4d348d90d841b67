package fasthttp

import (
	"sync"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
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

// ConnProgram builds the program NewConnHandler serves: main (holding
// the db_password secret) importing FastHTTP, and the "server"
// enclosure wrapping the package's ServeConn under Policy. Options
// apply to the builder (a tracer, say).
func ConnProgram(kind core.BackendKind, opts ...core.Option) (*core.Program, error) {
	b := core.NewBuilder(kind, opts...)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{Pkg},
		Vars:    map[string]int{"db_password": 64},
		Origin:  "app", LOC: 76,
	})
	Register(b)
	b.Enclosure("server", "main", Policy,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call(Pkg, "ServeConn", args...)
		}, Pkg)
	return b.Build()
}

// NewConnHandler returns the per-connection service function FastHTTP
// runs on an engine worker — the connection is serviced *inside the
// server enclosure* (entered per connection; server must wrap the
// package's ServeConn), forwarding parsed requests to that worker's
// trusted handler task — plus a stop function that shuts the per-worker
// handlers down and returns their first error. Shared by ServeEngine
// and the open-loop load generator; call stop after the work is
// drained.
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

// ServeEngine runs FastHTTP across an engine's workers: a sharded
// accept loop feeds each accepted connection to the NewConnHandler
// per-connection function. The returned stop function shuts the
// handlers down and returns their first error; call it after the
// accept loop and engine are drained.
func ServeEngine(e *engine.Engine, port uint16, server *core.Enclosure, page []byte) (*engine.Server, func() error, error) {
	conn, stop := NewConnHandler(server, page)
	srv, err := e.Serve(engine.ServeOpts{Port: port, Conn: conn})
	if err != nil {
		return nil, nil, err
	}
	return srv, stop, nil
}
