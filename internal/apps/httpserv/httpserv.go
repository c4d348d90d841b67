// Package httpserv recreates the paper's second macro-benchmark (§6.2):
// Go's net/http server with TLS-style secrets to protect, where the
// *request handler* is defined as an enclosure with no access to the
// packages used by net/http and no system calls. A request-delivered
// attack (e.g. a buffer overflow in the handler) therefore cannot reach
// private keys or certificates, nor exfiltrate anything via the kernel.
//
// The server itself runs trusted; each request performs the system-call
// trace a Go HTTP server generates for a fresh connection (accept,
// entropy, reads, deadline clock reads, writes, netpoller futexes,
// close) and two environment switches to call the enclosed handler.
// The handler only selects a 13KB in-memory static HTML page, so it
// performs no dynamic allocation — which is why LB_MPK stays within 2%
// of baseline while LB_VTX pays the VM EXIT on each of the ~dozen
// system calls (1.77× in the paper).
package httpserv

import (
	"fmt"
	"strings"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/kernel"
)

// Pkg is the server package name.
const Pkg = "net/http"

// HandlerPkg holds the application handler's static resources.
const HandlerPkg = "handler"

// PageSize13KB is the static page size the paper serves.
const PageSize13KB = 13 * 1024

// HandlerPolicy is the Table 2 net/http row's declared enclosure
// policy: "the request handler [is] an enclosure with no access to the
// packages used by net/http and no system calls."
const HandlerPolicy = "sys:none"

// Modelled per-request service costs (ns) for the net/http framework,
// calibrated so the baseline reaches the paper's 16991 req/s (≈58.8µs
// per request): connection setup and teardown bookkeeping, request
// parsing, and response assembly around the measured system calls.
const (
	costConnSetup = 21700
	costParse     = 15000
	costRespond   = 14000
	costHandler   = 3500 // the enclosed handler's page selection
)

// Deps is net/http's (stdlib) dependency closure; the HTTP row of
// Table 2 reports no public packages because the server is stdlib-only.
var Deps = []core.PackageSpec{
	{Name: "net", Origin: "stdlib", LOC: 48000},
	{Name: "bufio", Origin: "stdlib", LOC: 2300},
	{Name: "net/textproto", Origin: "stdlib", LOC: 1800, Imports: []string{"bufio", "net"}},
	{Name: "crypto/tls", Origin: "stdlib", LOC: 21000, Imports: []string{"net"}},
}

// Register declares the server, its dependencies, and the handler's
// resource package (the 13KB page) on the builder.
func Register(b *core.Builder) {
	for _, d := range Deps {
		b.Package(d)
	}
	b.Package(core.PackageSpec{
		Name:    Pkg,
		Origin:  "stdlib",
		LOC:     110000,
		Imports: []string{"net", "bufio", "net/textproto", "crypto/tls"},
		Funcs: map[string]core.Func{
			"Serve":     serve,
			"ServeConn": serveConnFunc,
		},
	})
	b.Package(core.PackageSpec{
		Name:   HandlerPkg,
		Origin: "app",
		LOC:    31,
		Consts: map[string][]byte{"page": StaticPage()},
	})
}

// Program builds the net/http benchmark program: main importing
// net/http and the handler package, and the "handler" enclosure over
// HandlerBody under handlerPolicy. Both entries serve it: the serial
// Serve loop and the per-connection NewConnHandler. Options apply to
// the builder (a tracer, say).
func Program(kind core.BackendKind, handlerPolicy string, opts ...core.Option) (*core.Program, error) {
	b := core.NewBuilder(kind, opts...)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{Pkg, HandlerPkg},
		Origin:  "app", LOC: 31,
	})
	Register(b)
	b.Enclosure("handler", "main", handlerPolicy, HandlerBody, HandlerPkg)
	return b.Build()
}

// StaticPage builds the deterministic 13KB HTML document.
func StaticPage() []byte {
	var sb strings.Builder
	sb.WriteString("<html><head><title>enclosure</title></head><body>\n")
	row := "<p>the quick brown fox jumps over the lazy dog 0123456789</p>\n"
	for sb.Len() < PageSize13KB-len("</body></html>\n")-len(row) {
		sb.WriteString(row)
	}
	sb.WriteString("</body></html>\n")
	out := []byte(sb.String())
	for len(out) < PageSize13KB {
		out = append(out, '\n')
	}
	return out[:PageSize13KB]
}

// ServeArgs configures one Serve run.
type ServeArgs struct {
	Port    uint16
	Handler *core.Enclosure // enclosed request handler
	Ready   chan<- struct{} // closed once listening
}

// ConnState is the per-serving-loop reused buffer set (Go pools these
// across connections): request bytes, response headers, and the
// clock_gettime output word for deadlines.
type ConnState struct {
	ReqBuf   core.Ref
	HdrBuf   core.Ref
	ClockOut core.Ref
}

// AllocConnState allocates the reused buffers in net/http's arena. The
// multi-core engine calls it once per worker; the serial Serve loop
// allocates the same set inline.
func AllocConnState(t *core.Task) ConnState {
	return ConnState{
		ReqBuf:   t.AllocIn(Pkg, 4096),
		HdrBuf:   t.AllocIn(Pkg, 512),
		ClockOut: t.AllocIn(Pkg, 8),
	}
}

// serve is net/http's accept loop: one connection per request (the
// paper's closed-loop load generator), Go-shaped syscall trace, handler
// dispatch through the enclosure, 13KB response. It returns when the
// listener dies (main closes it to stop the benchmark).
func serve(t *core.Task, args ...core.Value) ([]core.Value, error) {
	cfg := args[0].(ServeArgs)

	sock, errno := t.Syscall(kernel.NrSocket)
	if errno != kernel.OK {
		return nil, fmt.Errorf("http: socket: %v", errno)
	}
	if _, errno = t.Syscall(kernel.NrBind, sock, uint64(core.DefaultHostIP), uint64(cfg.Port)); errno != kernel.OK {
		return nil, fmt.Errorf("http: bind: %v", errno)
	}
	if _, errno = t.Syscall(kernel.NrListen, sock); errno != kernel.OK {
		return nil, fmt.Errorf("http: listen: %v", errno)
	}
	if cfg.Ready != nil {
		close(cfg.Ready)
	}

	// Reused connection buffers (Go pools these across connections).
	st := AllocConnState(t)

	served := 0
	for {
		conn, errno := t.Syscall(kernel.NrAccept, sock)
		if errno != kernel.OK {
			break // listener closed: benchmark over
		}
		path, err := serveConn(t, st, conn, cfg.Handler)
		if err != nil {
			return nil, err
		}
		served++
		if path == "/quit" {
			t.Syscall(kernel.NrClose, sock)
			break
		}
	}
	return []core.Value{served}, nil
}

// serveConn services one accepted connection with the Go-shaped
// per-request trace: netpoller wakes, entropy, deadline clock reads,
// request read/parse, dispatch through the enclosed handler (two
// environment switches), 13KB response, close. The serial Serve loop
// and the multi-core engine (where the accept happens on the sharded
// host-level acceptor, SO_REUSEPORT style) share it so the per-request
// work is identical regardless of worker count.
func serveConn(t *core.Task, st ConnState, conn uint64, handler *core.Enclosure) (string, error) {
	t.Compute(costConnSetup)
	// Go runtime housekeeping on a fresh connection: netpoller
	// registration wake and connection entropy.
	t.Syscall(kernel.NrFutex)
	t.Syscall(kernel.NrGetrandom, uint64(st.ReqBuf.Addr), 16)
	t.Syscall(kernel.NrGetpid)

	// Read and parse the request; set the read deadline first.
	t.Syscall(kernel.NrClockGettime, uint64(st.ClockOut.Addr))
	n, errno := t.Syscall(kernel.NrRead, conn, uint64(st.ReqBuf.Addr), st.ReqBuf.Size)
	if errno != kernel.OK {
		t.Syscall(kernel.NrClose, conn)
		return "", nil
	}
	// Netpoller re-arm after the blocking read.
	t.Syscall(kernel.NrFutex)
	raw := t.ReadBytes(st.ReqBuf.Slice(0, n))
	method, path := parseRequest(string(raw))
	t.Compute(costParse)

	// Dispatch into the enclosed handler: two switches.
	res, err := handler.Call(t, method, path)
	if err != nil {
		return "", err
	}
	page := res[0].(core.Ref)

	// Respond: headers then body, under a write deadline.
	t.Syscall(kernel.NrClockGettime, uint64(st.ClockOut.Addr))
	hdr := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n", page.Size)
	t.WriteBytes(st.HdrBuf, []byte(hdr))
	t.Compute(costRespond)
	if _, errno := t.Syscall(kernel.NrWrite, conn, uint64(st.HdrBuf.Addr), uint64(len(hdr))); errno != kernel.OK {
		return "", fmt.Errorf("http: write headers: %v", errno)
	}
	if _, errno := t.Syscall(kernel.NrWrite, conn, uint64(page.Addr), page.Size); errno != kernel.OK {
		return "", fmt.Errorf("http: write body: %v", errno)
	}
	// Netpoller wake for the closing connection.
	t.Syscall(kernel.NrFutex)
	t.Syscall(kernel.NrClose, conn)
	return path, nil
}

// serveConnFunc is the engine's entry: one connection, already accepted
// by the sharded host acceptor and injected into the worker's fd table.
// Args: ConnState, conn fd (uint64), handler enclosure.
func serveConnFunc(t *core.Task, args ...core.Value) ([]core.Value, error) {
	st := args[0].(ConnState)
	conn := args[1].(uint64)
	handler := args[2].(*core.Enclosure)
	path, err := serveConn(t, st, conn, handler)
	if err != nil {
		return nil, err
	}
	return []core.Value{path}, nil
}

// parseRequest extracts the method and path of an HTTP/1.1 request.
func parseRequest(raw string) (method, path string) {
	line, _, _ := strings.Cut(raw, "\r\n")
	parts := strings.SplitN(line, " ", 3)
	method, path = "GET", "/"
	if len(parts) >= 2 {
		method, path = parts[0], parts[1]
	}
	return method, path
}

// HandlerBody is the enclosed request handler: it selects the 13KB
// static page from its resource package — no allocation, no syscalls.
func HandlerBody(t *core.Task, args ...core.Value) ([]core.Value, error) {
	t.Compute(costHandler)
	page, err := t.Prog().ConstRef(HandlerPkg, "page")
	if err != nil {
		return nil, err
	}
	// Touch the page through the enforced path: the handler's view must
	// include its own resources (and nothing else).
	_ = t.Load8(page.Addr)
	return []core.Value{page}, nil
}
