// Package wiki recreates the paper's usability study (§6.3, Figure 5):
// a wiki-like web application storing its pages in Postgres, written
// against the deprecated lib/pq driver and the gorilla/mux router —
// which together drag in dozens of public packages. Two enclosures
// bracket all that public code:
//
//   - ○B "http-server": mux and its transitive dependencies, allowed
//     only to operate its own sockets (and explicitly unable to
//     connect anywhere); it parses requests ① and forwards them to
//     trusted code on a private Go channel ②, later writing back the
//     response ⑦⑧.
//   - ○C "db-proxy": pq and its dependencies, a proxy allowed to
//     connect only to the Postgres address ④⑤; it accepts SQL
//     requests on a channel ③ and returns results ⑥.
//
// The trusted code base ○A is the application glue: it validates
// queries and results and renders HTML. Neither enclosure can reach the
// filesystem, the page templates, or the database password.
package wiki

import (
	"fmt"
	"strings"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/simdb"
)

// Public package names.
const (
	MuxPkg = "github.com/gorilla/mux"
	PqPkg  = "github.com/lib/pq"
)

// Enclosure policies.
var (
	// PolicyServer allows ○B its own socket operations but no connects,
	// no files, and no other services.
	PolicyServer = core.NewPolicy().Sys("net", "io").ConnectNone().String()
	// PolicyProxy allows ○C socket operations but connect(2) only
	// toward the Postgres server (the §6.5 argument-filter extension).
	PolicyProxy = core.NewPolicy().Sys("net", "io").AllowConnect("10.0.0.2").String()
)

// Modelled service costs (ns).
const (
	costConnSetup = 12000
	costMuxRoute  = 10000
	costRender    = 15000
	costRespond   = 8000
	costProxy     = 5000
)

// muxDeps and pqDeps model the dependency trees of the two public
// packages: "Together, pq and mux incorporate 44 public Github
// packages as dependencies" (§6.3) — 21 under mux, 21 under pq, plus
// mux and pq themselves.
var muxDeps = []string{
	"github.com/gorilla/context", "github.com/gorilla/handlers",
	"github.com/gorilla/securecookie", "github.com/gorilla/schema",
	"github.com/gorilla/websocket", "github.com/felixge/httpsnoop",
	"golang.org/x/net/http/httpguts", "golang.org/x/net/idna",
	"golang.org/x/net/http2", "golang.org/x/net/http2/hpack",
	"golang.org/x/text/secure/bidirule", "golang.org/x/text/unicode/bidi",
	"golang.org/x/text/unicode/norm", "github.com/go-chi/chi",
	"github.com/justinas/alice", "github.com/rs/cors",
	"github.com/NYTimes/gziphandler", "github.com/urfave/negroni",
	"github.com/codegangsta/inject", "github.com/go-martini/martini",
	"github.com/unrolled/render",
}

var pqDeps = []string{
	"golang.org/x/crypto/pbkdf2", "golang.org/x/text",
	"golang.org/x/crypto/ssh/terminal", "golang.org/x/sys/unix",
	"github.com/jackc/pgpassfile", "github.com/jackc/pgservicefile",
	"github.com/jackc/pgproto3", "github.com/jackc/pgio",
	"github.com/jackc/chunkreader", "github.com/jackc/pgconn",
	"github.com/jackc/pgtype", "github.com/shopspring/decimal",
	"github.com/cockroachdb/apd", "github.com/gofrs/uuid",
	"github.com/jmoiron/sqlx", "github.com/Masterminds/squirrel",
	"github.com/lann/builder", "github.com/lann/ps",
	"github.com/jackc/puddle", "github.com/jackc/pgerrcode",
	"golang.org/x/xerrors",
}

// PublicDeps is the number of public packages the two enclosures
// confine, matching the paper's 44.
const PublicDeps = 44

// Register declares mux, pq, and their 42 transitive public
// dependencies (44 public packages in total, as in §6.3).
func Register(b *core.Builder) {
	for i, name := range muxDeps {
		var imports []string
		if i > 0 && i%3 != 0 {
			imports = []string{muxDeps[i-1]} // shallow chains inside the tree
		}
		b.Package(core.PackageSpec{Name: name, Origin: "public", LOC: 800 + i*137, Imports: imports})
	}
	b.Package(core.PackageSpec{
		Name: MuxPkg, Origin: "public", LOC: 5600, Stars: 18000, Contributors: 60,
		Imports: muxDeps,
		Funcs: map[string]core.Func{
			"Serve":     muxServe,
			"ServeConn": muxServeConnFunc,
		},
	})
	for i, name := range pqDeps {
		var imports []string
		if i > 0 && i%4 != 0 {
			imports = []string{pqDeps[i-1]}
		}
		b.Package(core.PackageSpec{Name: name, Origin: "public", LOC: 600 + i*211, Imports: imports})
	}
	b.Package(core.PackageSpec{
		Name: PqPkg, Origin: "public", LOC: 9400, Stars: 8000, Contributors: 80,
		Imports: pqDeps,
		Funcs:   map[string]core.Func{"Proxy": pqProxy},
	})
}

// Program builds the Figure 5 program: main holding the secrets, the
// ○B "http-server" enclosure over mux under serverPolicy, and the ○C
// "db-proxy" enclosure over pq's Proxy under proxyPolicy. ○B enters the
// mux entry its argument names: ServeArgs runs Serve, the serial
// accept loop; ServeConnArgs runs ServeConn, one engine connection.
// Options apply to the builder (a tracer, say).
func Program(kind core.BackendKind, serverPolicy, proxyPolicy string, opts ...core.Option) (*core.Program, error) {
	b := core.NewBuilder(kind, opts...)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{MuxPkg, PqPkg},
		Vars:    map[string]int{"db_password": 32, "page_templates": 4096},
		Origin:  "app", LOC: 120,
	})
	Register(b)
	b.Enclosure("http-server", "main", serverPolicy,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			if _, ok := args[0].(ServeArgs); ok {
				return t.Call(MuxPkg, "Serve", args[0])
			}
			return t.Call(MuxPkg, "ServeConn", args[0])
		}, MuxPkg)
	b.Enclosure("db-proxy", "main", proxyPolicy,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call(PqPkg, "Proxy", args[0])
		}, PqPkg)
	return b.Build()
}

// Request is ② — a parsed HTTP request forwarded to trusted code.
type Request struct {
	Kind string // "view", "save", "quit"
	Page string
	Body string
	Resp core.Ref // server-owned reused response buffer ⑦
	Done chan int // response length ⑧
}

// Query is ③ — a SQL request to the database proxy.
type Query struct {
	Op    string // "get" or "set"
	Key   string
	Val   string
	Reply chan QueryResult // ⑥
}

// QueryResult is ⑥.
type QueryResult struct {
	Found bool
	Val   string
	Err   string
}

// ServeArgs configures the enclosed HTTP server ○B.
type ServeArgs struct {
	Port  uint16
	Reqs  chan<- Request
	Ready chan<- struct{}
}

// ConnState is the reused per-serving-loop buffer set in mux's arena.
type ConnState struct {
	ReqBuf   core.Ref
	RespBuf  core.Ref
	ClockOut core.Ref
}

// AllocConnState allocates the reused buffers (one set per engine
// worker; the serial Serve loop allocates its own).
func AllocConnState(t *core.Task) ConnState {
	return ConnState{
		ReqBuf:   t.AllocIn(MuxPkg, 8192),
		RespBuf:  t.AllocIn(MuxPkg, 32*1024),
		ClockOut: t.AllocIn(MuxPkg, 8),
	}
}

// ServeConnArgs is the engine entry's argument: one accepted
// connection serviced inside the ○B enclosure.
type ServeConnArgs struct {
	State ConnState
	Conn  uint64
	Reqs  chan<- Request
}

// muxServe is ○B's body: gorilla/mux routing GET /view/<page> and
// POST /save/<page>, forwarding to trusted code over the channel.
func muxServe(t *core.Task, args ...core.Value) ([]core.Value, error) {
	cfg := args[0].(ServeArgs)

	sock, errno := t.Syscall(kernel.NrSocket)
	if errno != kernel.OK {
		return nil, fmt.Errorf("mux: socket: %v", errno)
	}
	if _, errno = t.Syscall(kernel.NrBind, sock, uint64(core.DefaultHostIP), uint64(cfg.Port)); errno != kernel.OK {
		return nil, fmt.Errorf("mux: bind: %v", errno)
	}
	if _, errno = t.Syscall(kernel.NrListen, sock); errno != kernel.OK {
		return nil, fmt.Errorf("mux: listen: %v", errno)
	}
	if cfg.Ready != nil {
		close(cfg.Ready)
	}

	st := AllocConnState(t)

	served := 0
	for {
		conn, errno := t.Syscall(kernel.NrAccept, sock)
		if errno != kernel.OK {
			break
		}
		kind, err := muxServeConn(t, st, conn, cfg.Reqs)
		if err != nil {
			return nil, err
		}
		served++
		if kind == "quit" {
			t.Syscall(kernel.NrShutdown, sock)
			break
		}
	}
	close(cfg.Reqs)
	return []core.Value{served}, nil
}

// muxServeConn services one accepted connection inside ○B: request
// recv and routing ①, forwarding to trusted code ②, response write
// back ⑦⑧. Shared between the serial enclosed accept loop and the
// multi-core engine.
func muxServeConn(t *core.Task, st ConnState, conn uint64, reqs chan<- Request) (string, error) {
	t.Compute(costConnSetup)
	// Runtime housekeeping rides one ring batch (per-call when the ring
	// is off).
	t.SubmitRuntimeSyscall(1, kernel.NrFutex)
	t.SubmitRuntimeSyscall(2, kernel.NrClockGettime, uint64(st.ClockOut.Addr))
	t.FlushSyscalls()

	n, errno := t.Syscall(kernel.NrRecv, conn, uint64(st.ReqBuf.Addr), st.ReqBuf.Size)
	if errno != kernel.OK {
		t.Syscall(kernel.NrShutdown, conn)
		return "", nil
	}
	raw := string(t.ReadBytes(st.ReqBuf.Slice(0, n)))
	kind, page, body := route(raw)
	t.Compute(costMuxRoute)

	done := make(chan int, 1)
	reqs <- Request{Kind: kind, Page: page, Body: body, Resp: st.RespBuf, Done: done}
	respLen := <-done

	// Response tail as one batch: netpoller re-arm, header send, body
	// send, shutdown.
	const (
		tagFutex = iota + 1
		tagSendHdr
		tagSendBody
		tagShutdown
	)
	t.SubmitRuntimeSyscall(tagFutex, kernel.NrFutex)
	hdr := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n", respLen)
	hdrRef := st.RespBuf.Slice(uint64(respLen), uint64(len(hdr)))
	t.WriteBytes(hdrRef, []byte(hdr))
	t.Compute(costRespond)
	t.SubmitSyscall(tagSendHdr, kernel.NrSend, conn, uint64(hdrRef.Addr), uint64(len(hdr)))
	t.SubmitSyscall(tagSendBody, kernel.NrSend, conn, uint64(st.RespBuf.Addr), uint64(respLen))
	t.SubmitSyscall(tagShutdown, kernel.NrShutdown, conn)
	for _, c := range t.FlushSyscalls() {
		if c.Errno != kernel.OK && (c.Tag == tagSendHdr || c.Tag == tagSendBody) {
			return "", fmt.Errorf("mux: send (tag %d): %v", c.Tag, c.Errno)
		}
	}
	return kind, nil
}

// muxServeConnFunc is the engine's per-connection entry into ○B.
// Args: ServeConnArgs.
func muxServeConnFunc(t *core.Task, args ...core.Value) ([]core.Value, error) {
	a := args[0].(ServeConnArgs)
	kind, err := muxServeConn(t, a.State, a.Conn, a.Reqs)
	if err != nil {
		return nil, err
	}
	return []core.Value{kind}, nil
}

// route implements the application's two mux routes.
func route(raw string) (kind, page, body string) {
	line, rest, _ := strings.Cut(raw, "\r\n")
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 {
		return "view", "welcome", ""
	}
	method, path := parts[0], parts[1]
	switch {
	case path == "/quit":
		return "quit", "", ""
	case method == "GET" && strings.HasPrefix(path, "/view/"):
		return "view", strings.TrimPrefix(path, "/view/"), ""
	case method == "POST" && strings.HasPrefix(path, "/save/"):
		_, b, _ := strings.Cut(rest, "\r\n\r\n")
		return "save", strings.TrimPrefix(path, "/save/"), b
	default:
		return "view", "welcome", ""
	}
}

// ProxyArgs configures the enclosed database proxy ○C.
type ProxyArgs struct {
	Queries <-chan Query
	Ready   chan<- struct{}
}

// pqProxy is ○C's body: it connects to Postgres through its allow-listed
// socket and services SQL requests from the channel until it closes.
func pqProxy(t *core.Task, args ...core.Value) ([]core.Value, error) {
	cfg := args[0].(ProxyArgs)

	sock, errno := t.Syscall(kernel.NrSocket)
	if errno != kernel.OK {
		return nil, fmt.Errorf("pq: socket: %v", errno)
	}
	if _, errno = t.Syscall(kernel.NrConnect, sock, uint64(simdb.Addr.Host), uint64(simdb.Addr.Port)); errno != kernel.OK {
		return nil, fmt.Errorf("pq: connect: %v", errno)
	}
	if cfg.Ready != nil {
		close(cfg.Ready)
	}

	wire := t.Alloc(8192)
	for q := range cfg.Queries {
		t.Compute(costProxy)
		// The channel-wake futex rides the same ring batch as the query
		// send pqSend submits below.
		t.SubmitRuntimeSyscall(tagProxyFutex, kernel.NrFutex)
		var res QueryResult
		switch q.Op {
		case "get":
			res = pqGet(t, sock, wire, q.Key)
		case "set":
			res = pqSet(t, sock, wire, q.Key, q.Val)
		default:
			res = QueryResult{Err: "pq: unknown op " + q.Op}
		}
		q.Reply <- res
	}
	t.Syscall(kernel.NrShutdown, sock)
	return nil, nil
}

// Completion tags for the proxy's per-query batch (futex + wire send).
const (
	tagProxyFutex = iota + 1
	tagProxySend
)

// pqSend writes the wire message and drains the proxy's pending batch
// (the loop's futex plus this send — replies are read sequentially, so
// the receive stays outside the ring).
func pqSend(t *core.Task, sock uint64, wire core.Ref, msg string) kernel.Errno {
	t.WriteBytes(wire.Slice(0, uint64(len(msg))), []byte(msg))
	t.SubmitSyscall(tagProxySend, kernel.NrSend, sock, uint64(wire.Addr), uint64(len(msg)))
	for _, c := range t.FlushSyscalls() {
		if c.Tag == tagProxySend && c.Errno != kernel.OK {
			return c.Errno
		}
	}
	return kernel.OK
}

// pqRecvLine reads one protocol line (and leaves any following payload
// length to the caller to fetch).
func pqRecvLine(t *core.Task, sock uint64, wire core.Ref) (string, []byte, kernel.Errno) {
	var acc []byte
	for {
		n, errno := t.Syscall(kernel.NrRecv, sock, uint64(wire.Addr), wire.Size)
		if errno != kernel.OK {
			return "", nil, errno
		}
		acc = append(acc, t.ReadBytes(wire.Slice(0, n))...)
		if i := strings.IndexByte(string(acc), '\n'); i >= 0 {
			return string(acc[:i]), acc[i+1:], kernel.OK
		}
	}
}

func pqGet(t *core.Task, sock uint64, wire core.Ref, key string) QueryResult {
	if errno := pqSend(t, sock, wire, "GET "+key+"\n"); errno != kernel.OK {
		return QueryResult{Err: errno.Error()}
	}
	line, payload, errno := pqRecvLine(t, sock, wire)
	if errno != kernel.OK {
		return QueryResult{Err: errno.Error()}
	}
	if line == "NIL" {
		return QueryResult{Found: false}
	}
	var want int
	if _, err := fmt.Sscanf(line, "VAL %d", &want); err != nil {
		return QueryResult{Err: "pq: bad response " + line}
	}
	for len(payload) < want {
		n, errno := t.Syscall(kernel.NrRecv, sock, uint64(wire.Addr), wire.Size)
		if errno != kernel.OK {
			return QueryResult{Err: errno.Error()}
		}
		payload = append(payload, t.ReadBytes(wire.Slice(0, n))...)
	}
	return QueryResult{Found: true, Val: string(payload[:want])}
}

func pqSet(t *core.Task, sock uint64, wire core.Ref, key, val string) QueryResult {
	msg := fmt.Sprintf("SET %s %d\n%s", key, len(val), val)
	if errno := pqSend(t, sock, wire, msg); errno != kernel.OK {
		return QueryResult{Err: errno.Error()}
	}
	line, _, errno := pqRecvLine(t, sock, wire)
	if errno != kernel.OK {
		return QueryResult{Err: errno.Error()}
	}
	if line != "OK" {
		return QueryResult{Err: "pq: " + line}
	}
	return QueryResult{Found: true}
}

// Glue is ○A — the trusted application logic: it reads forwarded
// requests ②, consults the database through the proxy ③⑥, validates
// the result, renders the HTML page, and hands it back ⑦. It returns
// when the server closes the request channel.
func Glue(t *core.Task, reqs <-chan Request, queries chan<- Query) error {
	defer close(queries)
	for req := range reqs {
		var html string
		switch req.Kind {
		case "view":
			reply := make(chan QueryResult, 1)
			queries <- Query{Op: "get", Key: req.Page, Reply: reply}
			res := <-reply
			if res.Err != "" {
				return fmt.Errorf("wiki: db error: %s", res.Err)
			}
			t.Compute(costRender)
			if res.Found {
				html = fmt.Sprintf("<html><body><h1>%s</h1><div>%s</div></body></html>", req.Page, res.Val)
			} else {
				html = fmt.Sprintf("<html><body><h1>%s</h1><p>page not found</p></body></html>", req.Page)
			}
		case "save":
			reply := make(chan QueryResult, 1)
			queries <- Query{Op: "set", Key: req.Page, Val: req.Body, Reply: reply}
			res := <-reply
			if res.Err != "" {
				return fmt.Errorf("wiki: db error: %s", res.Err)
			}
			t.Compute(costRender)
			html = fmt.Sprintf("<html><body><h1>%s</h1><p>saved</p></body></html>", req.Page)
		case "quit":
			html = "<html><body>bye</body></html>"
		}
		t.WriteBytes(req.Resp.Slice(0, uint64(len(html))), []byte(html))
		req.Done <- len(html)
	}
	return nil
}
