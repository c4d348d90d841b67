package loadgen

import (
	"bytes"
	"fmt"
	"sync"

	"github.com/litterbox-project/enclosure/internal/apps/fasthttp"
	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/apps/wiki"
	"github.com/litterbox-project/enclosure/internal/cluster"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
	"github.com/litterbox-project/enclosure/internal/simdb"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// EngineOpts shapes the engine a target runs on: the knobs
// the latency sweep varies, without exposing the full engine.Opts.
type EngineOpts struct {
	Workers       int
	QueueDepth    int
	Dequeue       engine.DequeueMode
	LIFOThreshold int
}

func (o EngineOpts) engineOpts() engine.Opts {
	return engine.Opts{
		Workers:       o.Workers,
		QueueDepth:    o.QueueDepth,
		Dequeue:       o.Dequeue,
		LIFOThreshold: o.LIFOThreshold,
	}
}

// appTarget is the shared Target implementation: an enclosed app's
// per-connection handler behind the request-kind table, served by one
// engine or by a cluster's nodes.
type appTarget struct {
	name    string
	backend core.BackendKind
	eng     *engine.Engine   // nil on a cluster target
	cl      *cluster.Cluster // nil on an engine target
	conn    func(t *core.Task, fd int) error
	stop    func() error
	closers []func() error
	kinds   []string
	reqs    map[string]requestKind

	// resp is the buffer every job's response check drains into. A
	// target's jobs execute one at a time on the goroutine stepping its
	// engines, so they never share resp at once.
	resp []byte

	// On a cluster target, mu guards the handler each node's Start made,
	// keyed by the node's program, and the first error a node's stopper
	// returned.
	mu      sync.Mutex
	nodes   map[*core.Program]func(t *core.Task, fd int) error
	stopErr error
}

// requestKind is one entry in a target's request table: the wire
// request the simulated client sends and what the 200 response's body
// must be.
type requestKind struct {
	wire string
	want Expect
}

func (a *appTarget) Name() string           { return a.name }
func (a *appTarget) Backend() string        { return a.backend.String() }
func (a *appTarget) Engine() *engine.Engine { return a.eng }
func (a *appTarget) Kinds() []string        { return a.kinds }

func (a *appTarget) Close() error {
	var first error
	if a.cl != nil {
		a.cl.Close() // drains every node, then runs its stopper
		first = a.stopErr
	} else {
		a.eng.Close()
		if a.stop != nil {
			first = a.stop()
		}
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
		// Inject at exec time into the executor's proc: a stolen job
		// runs on a different worker than its preference, and the fd
		// must live in the fd table its syscalls resolve against.
		fd := t.Worker().Proc().InjectConn(server)
		if err := a.conn(t, fd); err != nil {
			return err
		}
		return CheckResponse(client, rk.want, &a.resp)
	}
}

// Expect is what the body of a 200 response must be: exactly Len bytes
// when Len is set, and containing Has.
type Expect struct {
	Len int
	Has string
}

var (
	statusOK  = []byte("HTTP/1.1 200 OK")
	headerEnd = []byte("\r\n\r\n")
)

// CheckResponse is the simulated client's one response reader. It
// drains the client half of a connection until the server closes it
// (host-side, free) into *buf, which grows only when a response
// outgrows it, so a client that keeps its buffer reads each response
// without a new copy. It fails unless the response is a 200 whose body
// meets want.
func CheckResponse(client *simnet.Conn, want Expect, buf *[]byte) error {
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
	if want.Len > 0 && len(body) != want.Len {
		return fmt.Errorf("loadgen: body %d bytes, want %d", len(body), want.Len)
	}
	if !bytes.Contains(body, []byte(want.Has)) {
		return fmt.Errorf("loadgen: body lacks %q: %.80q", want.Has, body)
	}
	return nil
}

func get(path string) string {
	return "GET " + path + " HTTP/1.1\r\nHost: loadgen\r\n\r\n"
}

// app is one entry of the target table: how an enclosed app is built
// and served, and the requests the simulated client sends it.
type app struct {
	program func(kind core.BackendKind, opts ...core.Option) (*core.Program, error)
	// serve makes the app's connection handler on prog once its engine
	// exists, and the stopper, when not nil, to call after the engine
	// has drained.
	serve func(prog *core.Program) (conn func(t *core.Task, fd int) error, stop func() error)
	// db, when set, is the page a simulated Postgres on the program's
	// network stores as "welcome" (the wiki's). The database listens
	// before the engine starts, so a warm pool cannot capture the
	// program: newEngine refuses it.
	db    string
	kinds []string
	reqs  map[string]requestKind
}

// wikiPage is the text the wiki target stores and every view must
// render back.
const wikiPage = "hello from the enclosure wiki"

// apps is the target table, the one place each app is wired: every
// engine target and every cluster node is built from it.
var apps = map[string]app{
	// The net/http app: a 13KB page behind an enclosed handler.
	"HTTP": {
		program: func(kind core.BackendKind, opts ...core.Option) (*core.Program, error) {
			return httpserv.Program(kind, httpserv.HandlerPolicy, opts...)
		},
		serve: func(prog *core.Program) (func(t *core.Task, fd int) error, func() error) {
			return httpserv.NewConnHandler(prog.MustEnclosure("handler")), nil
		},
		kinds: []string{"page"},
		reqs: map[string]requestKind{
			"page": {wire: get("/"), want: Expect{Len: httpserv.PageSize13KB}},
		},
	},
	// The enclosed FastHTTP server: "page" is the 13KB static page
	// through the trusted handler, "stream" the syscall-dense chunked
	// streaming path — the heavy-tail pair of the latency table.
	"FastHTTP": {
		program: func(kind core.BackendKind, opts ...core.Option) (*core.Program, error) {
			return fasthttp.Program(kind, fasthttp.Policy, opts...)
		},
		serve: func(prog *core.Program) (func(t *core.Task, fd int) error, func() error) {
			return fasthttp.NewConnHandler(prog.MustEnclosure("server"), httpserv.StaticPage())
		},
		kinds: []string{"page", "stream"},
		reqs: map[string]requestKind{
			"page":   {wire: get("/"), want: Expect{Len: httpserv.PageSize13KB}},
			"stream": {wire: get("/stream"), want: Expect{Len: fasthttp.StreamBodyBytes}},
		},
	},
	// The two-enclosure wiki (Figure 5 topology) over its database.
	"wiki": {
		program: func(kind core.BackendKind, opts ...core.Option) (*core.Program, error) {
			return wiki.Program(kind, wiki.PolicyServer, wiki.PolicyProxy, opts...)
		},
		serve: func(prog *core.Program) (func(t *core.Task, fd int) error, func() error) {
			return wiki.NewConnHandler(prog.MustEnclosure("http-server"), prog.MustEnclosure("db-proxy"))
		},
		db:    wikiPage,
		kinds: []string{"view"},
		reqs: map[string]requestKind{
			"view": {wire: get("/view/welcome"), want: Expect{Has: wikiPage}},
		},
	},
}

// NewTarget builds an app of the target table ("HTTP", "FastHTTP",
// "wiki") on one engine. Options apply to the program (a tracer, say).
func NewTarget(name string, kind core.BackendKind, opts EngineOpts, progOpts ...core.Option) (Target, error) {
	a, ok := apps[name]
	if !ok {
		return nil, fmt.Errorf("loadgen: unknown target app %q", name)
	}
	prog, err := a.program(kind, progOpts...)
	if err != nil {
		return nil, err
	}
	tg := &appTarget{name: name, backend: kind, kinds: a.kinds, reqs: a.reqs}
	var db *simdb.Server
	if a.db != "" {
		if db, err = simdb.Start(prog.Net()); err != nil {
			return nil, err
		}
		tg.closers = append(tg.closers, func() error { db.Close(); return nil })
	}
	if tg.eng, err = newEngine(prog, opts); err != nil {
		if db != nil {
			db.Close()
		}
		return nil, err
	}
	if db != nil {
		db.Put("welcome", []byte(a.db))
	}
	tg.conn, tg.stop = a.serve(prog)
	return tg, nil
}

// NewClusterTarget builds an app of the target table on a cluster
// shaped by opts. The table supplies opts.Build and opts.Start, so a
// node serves exactly what the app's engine target serves: each node's
// Start makes the app's handler on the node's program, and a job finds
// the handler of the program it runs on. Run routes each arrival by
// session through the balancer (Cluster.Submit) and steps every node.
// The target has no Engine; the cluster is returned for its membership
// and metrics, and the target's Close closes it. An app with a
// database has no cluster target.
func NewClusterTarget(name string, kind core.BackendKind, opts cluster.Opts) (Target, *cluster.Cluster, error) {
	a, ok := apps[name]
	if !ok || a.db != "" {
		return nil, nil, fmt.Errorf("loadgen: no cluster target for app %q", name)
	}
	tg := &appTarget{name: name, backend: kind, kinds: a.kinds, reqs: a.reqs,
		nodes: make(map[*core.Program]func(t *core.Task, fd int) error)}
	opts.Build = func() (*core.Program, error) { return a.program(kind) }
	opts.Start = func(n *cluster.Node) (func(), error) {
		conn, stop := a.serve(n.Prog())
		tg.mu.Lock()
		tg.nodes[n.Prog()] = conn
		tg.mu.Unlock()
		return func() {
			var err error
			if stop != nil {
				err = stop()
			}
			tg.mu.Lock()
			delete(tg.nodes, n.Prog())
			if tg.stopErr == nil {
				tg.stopErr = err
			}
			tg.mu.Unlock()
		}, nil
	}
	tg.conn = func(t *core.Task, fd int) error {
		tg.mu.Lock()
		conn := tg.nodes[t.Prog()]
		tg.mu.Unlock()
		if conn == nil {
			return fmt.Errorf("loadgen: %s: no cluster node serves this program", name)
		}
		return conn(t, fd)
	}
	c, err := cluster.New(opts)
	if err != nil {
		return nil, nil, err
	}
	tg.cl = c
	return tg, c, nil
}

// newEngine starts a target's engine over prog. A program that asks
// for a warm pool the engine cannot capture fails with the capture's
// error rather than running every job on the shared program.
func newEngine(prog *core.Program, opts EngineOpts) (*engine.Engine, error) {
	e := engine.New(prog, opts.engineOpts())
	if err := e.WarmErr(); err != nil {
		e.Close()
		return nil, fmt.Errorf("loadgen: warm pool: %w", err)
	}
	return e, nil
}
