package loadgen

import (
	"fmt"
	"strings"

	"github.com/litterbox-project/enclosure/internal/apps/fasthttp"
	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/apps/wiki"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
	"github.com/litterbox-project/enclosure/internal/simdb"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// EngineOpts shapes the manual-mode engine a target runs on: the knobs
// the latency sweep varies, without exposing the full engine.Opts.
type EngineOpts struct {
	Workers       int
	QueueDepth    int
	Dequeue       engine.DequeueMode
	LIFOThreshold int
}

func (o EngineOpts) engineOpts() engine.Opts {
	return engine.Opts{
		Manual:        true,
		Workers:       o.Workers,
		QueueDepth:    o.QueueDepth,
		Dequeue:       o.Dequeue,
		LIFOThreshold: o.LIFOThreshold,
	}
}

// appTarget is the shared Target implementation: an enclosed app's
// per-connection handler behind the request-kind table.
type appTarget struct {
	name    string
	backend core.BackendKind
	prog    *core.Program
	eng     *engine.Engine
	conn    func(t *core.Task, fd int) error
	stop    func() error
	closers []func() error
	kinds   []string
	reqs    map[string]requestKind
}

// requestKind is one entry in a target's request table: the wire
// request the simulated client sends and the response bytes it expects
// back (0 = any 200 response).
type requestKind struct {
	wire     string
	wantBody int
}

func (a *appTarget) Name() string           { return a.name }
func (a *appTarget) Backend() string        { return a.backend.String() }
func (a *appTarget) Engine() *engine.Engine { return a.eng }
func (a *appTarget) Kinds() []string        { return a.kinds }

func (a *appTarget) Close() error {
	a.eng.Close()
	var first error
	if a.stop != nil {
		first = a.stop()
	}
	for _, c := range a.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NewRequest builds one request job. The connection is a direct
// simnet pair — no listener, no accept loop: the load generator *is*
// the admission path, so the connection goes straight to the worker
// that executes the job. The client half lives at host level inside
// the closure: the request is written before the server's virtual work
// starts and the response drained after it finishes, none of it billed
// to the virtual clock.
func (a *appTarget) NewRequest(kind string) engine.Job {
	rk, ok := a.reqs[kind]
	if !ok {
		return func(t *core.Task) error {
			return fmt.Errorf("loadgen: %s has no request kind %q", a.name, kind)
		}
	}
	client, server := simnet.Pair()
	if _, err := client.Write([]byte(rk.wire)); err != nil {
		return func(t *core.Task) error { return fmt.Errorf("loadgen: client write: %w", err) }
	}
	return func(t *core.Task) error {
		defer client.Close()
		// Inject at exec time into the executor's proc — the same
		// stolen-job rule engine.Serve follows.
		fd := t.Worker().Proc().InjectConn(server)
		if err := a.conn(t, fd); err != nil {
			return err
		}
		return checkResponse(client, rk.wantBody)
	}
}

// checkResponse drains the client half of the connection (host-side,
// free) and validates status and body length.
func checkResponse(client *simnet.Conn, wantBody int) error {
	var resp []byte
	buf := make([]byte, 32*1024)
	for {
		n, err := client.Read(buf)
		if n > 0 {
			resp = append(resp, buf[:n]...)
		}
		if err != nil {
			break // server shut the connection down: response complete
		}
	}
	s := string(resp)
	if !strings.HasPrefix(s, "HTTP/1.1 200 OK") {
		return fmt.Errorf("loadgen: bad response: %.60q", s)
	}
	if wantBody > 0 {
		_, body, ok := strings.Cut(s, "\r\n\r\n")
		if !ok || len(body) < wantBody {
			return fmt.Errorf("loadgen: short body: %d bytes, want >= %d", len(body), wantBody)
		}
	}
	return nil
}

func get(path string) string {
	return "GET " + path + " HTTP/1.1\r\nHost: loadgen\r\n\r\n"
}

// NewHTTPTarget builds the net/http app (13KB page behind an enclosed
// handler) on a manual-mode engine. Kinds: "page".
func NewHTTPTarget(kind core.BackendKind, opts EngineOpts) (Target, error) {
	b := core.NewBuilder(kind)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{httpserv.Pkg, httpserv.HandlerPkg},
		Origin:  "app", LOC: 31,
	})
	httpserv.Register(b)
	b.Enclosure("handler", "main", "sys:none", httpserv.HandlerBody, httpserv.HandlerPkg)
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	e := engine.New(prog, opts.engineOpts())
	return &appTarget{
		name: "HTTP", backend: kind, prog: prog, eng: e,
		conn:  httpserv.NewConnHandler(prog.MustEnclosure("handler")),
		kinds: []string{"page"},
		reqs: map[string]requestKind{
			"page": {wire: get("/"), wantBody: httpserv.PageSize13KB},
		},
	}, nil
}

// NewFastHTTPTarget builds the enclosed FastHTTP server on a
// manual-mode engine. Kinds: "page" (13KB static page through the
// trusted handler) and "stream" (the syscall-dense chunked-streaming
// path) — the heavy-tail pair of the latency table.
func NewFastHTTPTarget(kind core.BackendKind, opts EngineOpts) (Target, error) {
	b := core.NewBuilder(kind)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{fasthttp.Pkg},
		Vars:    map[string]int{"db_password": 64},
		Origin:  "app", LOC: 76,
	})
	fasthttp.Register(b)
	b.Enclosure("server", "main", fasthttp.Policy,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call(fasthttp.Pkg, "ServeConn", args...)
		}, fasthttp.Pkg)
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	e := engine.New(prog, opts.engineOpts())
	conn, stop := fasthttp.NewConnHandler(prog.MustEnclosure("server"), httpserv.StaticPage())
	return &appTarget{
		name: "FastHTTP", backend: kind, prog: prog, eng: e,
		conn: conn, stop: stop,
		kinds: []string{"page", "stream"},
		reqs: map[string]requestKind{
			"page":   {wire: get("/"), wantBody: httpserv.PageSize13KB},
			"stream": {wire: get("/stream")},
		},
	}, nil
}

// NewWikiTarget builds the two-enclosure wiki (Figure 5 topology) with
// a simulated Postgres on a manual-mode engine. Kinds: "view".
func NewWikiTarget(kind core.BackendKind, opts EngineOpts) (Target, error) {
	b := core.NewBuilder(kind)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{wiki.MuxPkg, wiki.PqPkg},
		Vars:    map[string]int{"db_password": 32, "page_templates": 4096},
		Origin:  "app", LOC: 120,
	})
	wiki.Register(b)
	b.Enclosure("http-server", "main", wiki.PolicyServer,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call(wiki.MuxPkg, "ServeConn", args...)
		}, wiki.MuxPkg)
	b.Enclosure("db-proxy", "main", wiki.PolicyProxy,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call(wiki.PqPkg, "Proxy", args[0])
		}, wiki.PqPkg)
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	db, err := simdb.Start(prog.Net())
	if err != nil {
		return nil, err
	}
	db.Put("welcome", []byte("hello from the enclosure wiki"))
	e := engine.New(prog, opts.engineOpts())
	conn, stop := wiki.NewConnHandler(prog.MustEnclosure("http-server"), prog.MustEnclosure("db-proxy"))
	return &appTarget{
		name: "wiki", backend: kind, prog: prog, eng: e,
		conn: conn, stop: stop,
		closers: []func() error{func() error { db.Close(); return nil }},
		kinds:   []string{"view"},
		reqs: map[string]requestKind{
			"view": {wire: get("/view/welcome")},
		},
	}, nil
}

// NewTarget resolves an app name ("HTTP", "FastHTTP", "wiki") to its
// target constructor.
func NewTarget(app string, kind core.BackendKind, opts EngineOpts) (Target, error) {
	switch app {
	case "HTTP":
		return NewHTTPTarget(kind, opts)
	case "FastHTTP":
		return NewFastHTTPTarget(kind, opts)
	case "wiki":
		return NewWikiTarget(kind, opts)
	}
	return nil, fmt.Errorf("loadgen: unknown target app %q", app)
}
