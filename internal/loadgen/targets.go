package loadgen

import (
	"bytes"
	"fmt"

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
	eng     *engine.Engine
	conn    func(t *core.Task, fd int) error
	stop    func() error
	closers []func() error
	kinds   []string
	reqs    map[string]requestKind

	// resp is the buffer every job's response check drains into. A
	// target's engine runs in manual mode, so its jobs execute one at a
	// time on the goroutine stepping it and never share resp at once.
	resp []byte
}

// requestKind is one entry in a target's request table: the wire
// request the simulated client sends and the 200 response body it
// expects back — exactly bodyLen bytes when bodyLen is set, containing
// bodyHas when that is set.
type requestKind struct {
	wire    string
	bodyLen int
	bodyHas string
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
		return checkResponse(client, rk, &a.resp)
	}
}

var (
	statusOK  = []byte("HTTP/1.1 200 OK")
	headerEnd = []byte("\r\n\r\n")
)

// checkResponse drains the client half of the connection (host-side,
// free) into *buf, growing it as needed, and validates the status and
// body against rk.
func checkResponse(client *simnet.Conn, rk requestKind, buf *[]byte) error {
	resp := (*buf)[:0]
	for {
		if len(resp) == cap(resp) {
			resp = append(resp, make([]byte, 32*1024)...)[:len(resp)]
		}
		n, err := client.Read(resp[len(resp):cap(resp)])
		resp = resp[:len(resp)+n]
		if err != nil {
			break // server shut the connection down: response complete
		}
	}
	*buf = resp
	if !bytes.HasPrefix(resp, statusOK) {
		return fmt.Errorf("loadgen: bad response: %.60q", resp)
	}
	_, body, ok := bytes.Cut(resp, headerEnd)
	if !ok {
		return fmt.Errorf("loadgen: no header/body separator: %.60q", resp)
	}
	if rk.bodyLen > 0 && len(body) != rk.bodyLen {
		return fmt.Errorf("loadgen: body %d bytes, want %d", len(body), rk.bodyLen)
	}
	if !bytes.Contains(body, []byte(rk.bodyHas)) {
		return fmt.Errorf("loadgen: body lacks %q: %.80q", rk.bodyHas, body)
	}
	return nil
}

func get(path string) string {
	return "GET " + path + " HTTP/1.1\r\nHost: loadgen\r\n\r\n"
}

// NewHTTPTarget builds the net/http app (13KB page behind an enclosed
// handler) on a manual-mode engine. Kinds: "page". Options apply to
// the program (a tracer, say), as in every target constructor.
func NewHTTPTarget(kind core.BackendKind, opts EngineOpts, progOpts ...core.Option) (Target, error) {
	prog, err := httpserv.Program(kind, httpserv.HandlerPolicy, progOpts...)
	if err != nil {
		return nil, err
	}
	return &appTarget{
		name: "HTTP", backend: kind, eng: engine.New(prog, opts.engineOpts()),
		conn:  httpserv.NewConnHandler(prog.MustEnclosure("handler")),
		kinds: []string{"page"},
		reqs: map[string]requestKind{
			"page": {wire: get("/"), bodyLen: httpserv.PageSize13KB},
		},
	}, nil
}

// NewFastHTTPTarget builds the enclosed FastHTTP server on a
// manual-mode engine. Kinds: "page" (13KB static page through the
// trusted handler) and "stream" (the syscall-dense chunked-streaming
// path) — the heavy-tail pair of the latency table.
func NewFastHTTPTarget(kind core.BackendKind, opts EngineOpts, progOpts ...core.Option) (Target, error) {
	prog, err := fasthttp.Program(kind, fasthttp.Policy, progOpts...)
	if err != nil {
		return nil, err
	}
	conn, stop := fasthttp.NewConnHandler(prog.MustEnclosure("server"), httpserv.StaticPage())
	return &appTarget{
		name: "FastHTTP", backend: kind, eng: engine.New(prog, opts.engineOpts()),
		conn: conn, stop: stop,
		kinds: []string{"page", "stream"},
		reqs: map[string]requestKind{
			"page":   {wire: get("/"), bodyLen: httpserv.PageSize13KB},
			"stream": {wire: get("/stream"), bodyLen: fasthttp.StreamBodyBytes},
		},
	}, nil
}

// wikiPage is the text the wiki target stores and every view must
// render back.
const wikiPage = "hello from the enclosure wiki"

// NewWikiTarget builds the two-enclosure wiki (Figure 5 topology) with
// a simulated Postgres on a manual-mode engine. Kinds: "view".
func NewWikiTarget(kind core.BackendKind, opts EngineOpts, progOpts ...core.Option) (Target, error) {
	prog, err := wiki.Program(kind, wiki.PolicyServer, wiki.PolicyProxy, progOpts...)
	if err != nil {
		return nil, err
	}
	db, err := simdb.Start(prog.Net())
	if err != nil {
		return nil, err
	}
	db.Put("welcome", []byte(wikiPage))
	conn, stop := wiki.NewConnHandler(prog.MustEnclosure("http-server"), prog.MustEnclosure("db-proxy"))
	return &appTarget{
		name: "wiki", backend: kind, eng: engine.New(prog, opts.engineOpts()),
		conn: conn, stop: stop,
		closers: []func() error{func() error { db.Close(); return nil }},
		kinds:   []string{"view"},
		reqs: map[string]requestKind{
			"view": {wire: get("/view/welcome"), bodyHas: wikiPage},
		},
	}, nil
}

// NewTarget resolves an app name ("HTTP", "FastHTTP", "wiki") to its
// target constructor.
func NewTarget(app string, kind core.BackendKind, opts EngineOpts, progOpts ...core.Option) (Target, error) {
	switch app {
	case "HTTP":
		return NewHTTPTarget(kind, opts, progOpts...)
	case "FastHTTP":
		return NewFastHTTPTarget(kind, opts, progOpts...)
	case "wiki":
		return NewWikiTarget(kind, opts, progOpts...)
	}
	return nil, fmt.Errorf("loadgen: unknown target app %q", app)
}
