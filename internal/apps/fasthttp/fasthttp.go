// Package fasthttp recreates the paper's third macro-benchmark (§6.2):
// FastHTTP, "an industry-grade Github public Go package that implements
// a performance-oriented HTTP server" — 374K lines from over 100
// contributors. To prevent it from accessing the application's
// sensitive resources, the *server itself* runs inside an enclosure
// allowed only net-flavoured system calls; it forwards parsed requests
// to a trusted handler goroutine over a Go channel (the paper's
// secured-callback pattern; here a core.Handoff, the channel a
// simulated goroutine may wait on) and writes the response the handler
// placed into a reused buffer.
//
// FastHTTP's object reuse across requests keeps dynamic-memory traffic
// (and thus LB_MPK transfers) minimal: MPK lands ~1.04×, while LB_VTX
// pays a VM EXIT per system call for ~2× (its service time is smaller
// than net/http's while the syscall overhead stays the same).
package fasthttp

import (
	"fmt"
	"strings"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/ring"
)

// Pkg is the public package name.
const Pkg = "github.com/valyala/fasthttp"

// Policy is the server enclosure's policy: socket operations plus
// descriptor I/O, nothing else — no files, no memory management, no
// process control.
var Policy = core.NewPolicy().Sys("net", "io").String()

// Modelled per-request service costs (ns): FastHTTP's zero-allocation
// parsing makes its service time markedly smaller than net/http's
// (baseline 22867 req/s ≈ 43.7µs per request).
const (
	costConnSetup = 12000
	costParse     = 9000
	costRespond   = 8300
	costHandler   = 10100 // trusted handler: select + copy 13KB page
)

// GET /stream is FastHTTP's static chunked-streaming path: the server
// answers from a prefilled buffer in streamChunks back-to-back sends
// with near-zero per-chunk compute and no trusted-handler round trip.
// It is the syscall-dense hot loop the submission ring targets — with
// the ring on, each chunk costs one ring entry instead of one full
// trap (and, on LB_VTX, one VM exit per batch instead of per send).
const (
	streamChunks    = 256
	streamChunkSize = 56 // chunk frame: size line + payload + CRLF
	costStreamChunk = 20 // copy-free: advance an offset into the buffer
)

// StreamBodyBytes is the body size GET /stream produces — benchmarks
// validate the transfer against it.
const StreamBodyBytes = streamChunks * streamChunkSize

// StreamSyscalls is the number of filtered system calls one /stream
// request issues from the server enclosure (header send, chunk sends,
// shutdown) — the amortisation denominator benchmarks report against.
const StreamSyscalls = streamChunks + 2

// deps is FastHTTP's dependency tree: 3 public packages, 374K LOC,
// 13.1K stars, 100 contributors (Table 2).
var deps = []core.PackageSpec{
	{Name: "github.com/valyala/bytebufferpool", Origin: "public", LOC: 21000, Stars: 1100, Contributors: 8},
	{Name: "github.com/klauspost/compress", Origin: "public", LOC: 170000, Stars: 4200, Contributors: 60},
	{Name: "github.com/andybalholm/brotli", Origin: "public", LOC: 93000, Stars: 900, Contributors: 12},
}

// Register declares FastHTTP and its dependency tree.
func Register(b *core.Builder) {
	for _, d := range deps {
		b.Package(d)
	}
	b.Package(core.PackageSpec{
		Name:   Pkg,
		Origin: "public",
		LOC:    90000,
		Stars:  13100, Contributors: 100,
		Imports: []string{
			"github.com/valyala/bytebufferpool",
			"github.com/klauspost/compress",
			"github.com/andybalholm/brotli",
		},
		Funcs: map[string]core.Func{
			"Serve":     serve,
			"ServeConn": serveConnFunc,
		},
	})
}

// Program builds the FastHTTP benchmark program: main (holding the
// db_password secret the server must never see) importing FastHTTP,
// and the "server" enclosure under policy. The enclosure enters the
// package entry its argument names: ServeArgs runs Serve, the serial
// accept loop; ServeConnArgs runs ServeConn, one engine connection.
// Options apply to the builder (a tracer, a syscall ring).
func Program(kind core.BackendKind, policy string, opts ...core.Option) (*core.Program, error) {
	b := core.NewBuilder(kind, opts...)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{Pkg},
		Vars:    map[string]int{"db_password": 64},
		Origin:  "app", LOC: 76,
	})
	Register(b)
	b.Enclosure("server", "main", policy,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			if _, ok := args[0].(ServeArgs); ok {
				return t.Call(Pkg, "Serve", args[0])
			}
			return t.Call(Pkg, "ServeConn", args[0])
		}, Pkg)
	return b.Build()
}

// EnclosedLOC sums the public code the enclosure confines.
func EnclosedLOC() int {
	total := 90000
	for _, d := range deps {
		total += d.LOC
	}
	return total
}

// Request is what the enclosed server hands the trusted handler: parsed
// control metadata plus the reused response buffer to fill.
type Request struct {
	Method string
	Path   string
	// Resp is the server-owned (fasthttp arena) buffer the handler
	// fills; the handler returns the response length via Done.
	Resp core.Ref
	Done *core.Handoff[int]
}

// ServeArgs configures one Serve run.
type ServeArgs struct {
	Port  uint16
	Reqs  *core.Handoff[Request] // to the trusted handler goroutine
	Ready chan<- struct{}        // closed once listening
}

// ConnState is the reused per-serving-loop buffer set — FastHTTP's
// object reuse, the reason LB_MPK avoids "numerous costly transfers".
type ConnState struct {
	ReqBuf   core.Ref
	RespBuf  core.Ref
	ClockOut core.Ref
	// Done carries the handler's response length back; one request is
	// in flight per serving loop, so the loop reuses it.
	Done *core.Handoff[int]
}

// AllocConnState allocates the reused buffers in FastHTTP's arena (one
// set per engine worker; the serial Serve loop allocates its own).
func AllocConnState(t *core.Task) ConnState {
	return ConnState{
		ReqBuf:   t.AllocIn(Pkg, 4096),
		RespBuf:  t.AllocIn(Pkg, 16*1024),
		ClockOut: t.AllocIn(Pkg, 8),
		Done:     core.NewHandoff[int](1),
	}
}

// ServeConnArgs is the engine entry's argument: one accepted
// connection serviced inside the server enclosure.
type ServeConnArgs struct {
	State ConnState
	Conn  uint64
	Reqs  *core.Handoff[Request]
}

// serve is FastHTTP's accept loop, running entirely inside the server
// enclosure. Per request it performs the socket-only syscall trace
// (accept, recv, send, send, shutdown) while the language runtime's
// housekeeping (netpoller futexes, deadline clock) issues through the
// trusted runtime context — the same per-request dozen system calls as
// net/http, with a smaller service time.
func serve(t *core.Task, args ...core.Value) ([]core.Value, error) {
	cfg := args[0].(ServeArgs)

	sock, errno := t.Syscall(kernel.NrSocket)
	if errno != kernel.OK {
		return nil, fmt.Errorf("fasthttp: socket: %v", errno)
	}
	if _, errno = t.Syscall(kernel.NrBind, sock, uint64(core.DefaultHostIP), uint64(cfg.Port)); errno != kernel.OK {
		return nil, fmt.Errorf("fasthttp: bind: %v", errno)
	}
	if _, errno = t.Syscall(kernel.NrListen, sock); errno != kernel.OK {
		return nil, fmt.Errorf("fasthttp: listen: %v", errno)
	}
	if cfg.Ready != nil {
		close(cfg.Ready)
	}

	// Object reuse across requests — the paper credits exactly this for
	// LB_MPK avoiding "numerous costly transfers".
	st := AllocConnState(t)

	served := 0
	for {
		conn, errno := t.Syscall(kernel.NrAccept, sock)
		if errno != kernel.OK {
			break // listener closed
		}
		path, err := serveConn(t, st, conn, cfg.Reqs)
		if err != nil {
			return nil, err
		}
		served++
		if path == "/quit" {
			t.Syscall(kernel.NrShutdown, sock)
			break
		}
	}
	cfg.Reqs.Close(t)
	return []core.Value{served}, nil
}

// serveConn services one accepted connection: the socket-only syscall
// trace (recv, send, send, shutdown) with the runtime housekeeping
// issued through the trusted runtime context, forwarding the parsed
// request to trusted code over the hand-off. Shared between the serial
// enclosed accept loop and the multi-core engine (where the accept
// happens on the sharded host acceptor).
func serveConn(t *core.Task, st ConnState, conn uint64, reqs *core.Handoff[Request]) (string, error) {
	t.Compute(costConnSetup)
	// Runtime housekeeping rides one ring batch: netpoller wake,
	// deadline, entropy (executed per call when the ring is off).
	t.SubmitRuntimeSyscall(1, kernel.NrFutex)
	t.SubmitRuntimeSyscall(2, kernel.NrClockGettime, uint64(st.ClockOut.Addr))
	t.SubmitRuntimeSyscall(3, kernel.NrGetrandom, uint64(st.ReqBuf.Addr), 16)
	t.FlushSyscalls()

	n, errno := t.Syscall(kernel.NrRecv, conn, uint64(st.ReqBuf.Addr), st.ReqBuf.Size)
	if errno != kernel.OK {
		t.Syscall(kernel.NrShutdown, conn)
		return "", nil
	}
	raw := t.ReadBytes(st.ReqBuf.Slice(0, n))
	method, path := parseRequest(string(raw))
	t.Compute(costParse)

	if path == "/stream" {
		return serveStream(t, st, conn)
	}

	// Secured callback: hand the parsed request to trusted code.
	reqs.Send(t, Request{Method: method, Path: path, Resp: st.RespBuf, Done: st.Done})
	respLen, _ := st.Done.Recv(t)

	// The whole response tail is one batch: write-deadline clock,
	// netpoller re-arm, header send, body send, shutdown.
	t.SubmitRuntimeSyscall(tagClock, kernel.NrClockGettime, uint64(st.ClockOut.Addr))
	t.SubmitRuntimeSyscall(tagFutex, kernel.NrFutex)

	hdr := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", respLen)
	hdrRef := st.RespBuf.Slice(uint64(respLen), uint64(len(hdr)))
	t.WriteBytes(hdrRef, []byte(hdr))
	t.Compute(costRespond)
	t.SubmitSyscall(tagSendHdr, kernel.NrSend, conn, uint64(hdrRef.Addr), uint64(len(hdr)))
	t.SubmitSyscall(tagSendBody, kernel.NrSend, conn, uint64(st.RespBuf.Addr), uint64(respLen))
	t.SubmitSyscall(tagShutdown, kernel.NrShutdown, conn)
	for _, c := range t.FlushSyscalls() {
		if c.Errno != kernel.OK && (c.Tag == tagSendHdr || c.Tag == tagSendBody) {
			return "", fmt.Errorf("fasthttp: send (tag %d): %v", c.Tag, c.Errno)
		}
	}
	return path, nil
}

// Completion tags for serveConn's response-tail batch.
const (
	tagClock = iota + 1
	tagFutex
	tagSendHdr
	tagSendBody
	tagShutdown
)

// serveStream services GET /stream: streamChunks chunk-frame sends
// straight out of the reused response buffer, then the terminating
// shutdown — all through the batched submit API so a depth-32 ring
// turns 257 traps into 9.
func serveStream(t *core.Task, st ConnState, conn uint64) (string, error) {
	hdr := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
	hdrRef := st.RespBuf.Slice(0, uint64(len(hdr)))
	t.WriteBytes(hdrRef, []byte(hdr))
	t.SubmitSyscall(0, kernel.NrSend, conn, uint64(hdrRef.Addr), uint64(len(hdr)))
	chunk := st.RespBuf.Slice(uint64(len(hdr)), streamChunkSize)
	// Reap inside the submit loop: a full SQ auto-drains on the next
	// submit, and the CQ is bounded at depth, so letting completions
	// accumulate across the whole stream would overflow it. Incremental
	// reaping is free — it consumes already-posted completions without
	// forcing a drain, so the batch count stays 257-traps-into-9.
	checkSends := func(cs []ring.Completion) error {
		for _, c := range cs {
			if c.Errno != kernel.OK && c.Tag <= streamChunks {
				return fmt.Errorf("fasthttp: stream send (tag %d): %v", c.Tag, c.Errno)
			}
		}
		return nil
	}
	for i := 1; i <= streamChunks; i++ {
		t.Compute(costStreamChunk)
		t.SubmitSyscall(uint64(i), kernel.NrSend, conn, uint64(chunk.Addr), chunk.Size)
		if err := checkSends(t.ReapSyscalls()); err != nil {
			return "", err
		}
	}
	t.SubmitSyscall(streamChunks+1, kernel.NrShutdown, conn)
	if err := checkSends(t.FlushSyscalls()); err != nil {
		return "", err
	}
	return "/stream", nil
}

// serveConnFunc is the engine's per-connection entry into the enclosed
// server. Args: ServeConnArgs.
func serveConnFunc(t *core.Task, args ...core.Value) ([]core.Value, error) {
	a := args[0].(ServeConnArgs)
	path, err := serveConn(t, a.State, a.Conn, a.Reqs)
	if err != nil {
		return nil, err
	}
	return []core.Value{path}, nil
}

func parseRequest(raw string) (method, path string) {
	line, _, _ := strings.Cut(raw, "\r\n")
	parts := strings.SplitN(line, " ", 3)
	method, path = "GET", "/"
	if len(parts) >= 2 {
		method, path = parts[0], parts[1]
	}
	return method, path
}

// HandleLoop is the trusted handler goroutine's body: it runs outside
// any enclosure, receives parsed requests, selects the 13KB page,
// copies it into the server's reused response buffer, and reports the
// length. In a real deployment this is where private databases and
// other sensitive state live, completely unavailable to the enclosed
// FastHTTP server. It returns when the server closes the hand-off.
func HandleLoop(t *core.Task, reqs *core.Handoff[Request], page []byte) error {
	for {
		req, ok := reqs.Recv(t)
		if !ok {
			return nil
		}
		t.Compute(costHandler)
		n := len(page)
		if uint64(n) > req.Resp.Size {
			n = int(req.Resp.Size)
		}
		t.WriteBytes(req.Resp.Slice(0, uint64(n)), page[:n])
		req.Done.Send(t, n)
	}
}
