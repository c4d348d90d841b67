package bench

import (
	"bytes"
	"fmt"

	"github.com/litterbox-project/enclosure/internal/apps/fasthttp"
	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// clientHostIP is the load generator's address. The client runs at host
// level, dialling the simulated network directly — it models the
// paper's external load-generating machine, so none of its work is
// billed to the program's virtual clock.
var clientHostIP = simnet.HostIP(10, 0, 0, 99)

// HTTPGet performs one closed-loop request from the load generator's
// host and returns the body length. The response lands in *buf, which
// grows only when a response outgrows it, so a client that keeps its
// buffer across requests reads each response without a new copy.
// Concurrent clients each own their buffer.
func HTTPGet(net *simnet.Net, port uint16, path string, buf *[]byte) (int, error) {
	conn, err := net.Dial(clientHostIP, simnet.Addr{Host: core.DefaultHostIP, Port: port})
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	b := append((*buf)[:0], "GET "...)
	b = append(append(b, path...), " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
	if _, err := conn.Write(b); err != nil {
		*buf = b
		return 0, err
	}
	b, n := b[:cap(b)], 0
	for {
		if n == len(b) {
			b = append(b, make([]byte, max(len(b), 32<<10))...)
		}
		m, err := conn.Read(b[n:])
		n += m
		if err != nil {
			break // server closed: response complete
		}
	}
	*buf = b
	resp := b[:n]
	if !bytes.HasPrefix(resp, statusOK) {
		return 0, fmt.Errorf("bad response: %.60q", resp)
	}
	i := bytes.Index(resp, headerEnd)
	if i < 0 {
		return 0, fmt.Errorf("no header/body separator")
	}
	return n - i - len(headerEnd), nil
}

var (
	statusOK  = []byte("HTTP/1.1 200 OK")
	headerEnd = []byte("\r\n\r\n")
)

// HTTPRequests is the closed-loop request count per backend run.
const HTTPRequests = 400

// HTTPHandlerPolicy is the Table 2 net/http row's declared enclosure
// policy: "the request handler [is] an enclosure with no access to the
// packages used by net/http and no system calls."
const HTTPHandlerPolicy = "sys:none"

// buildHTTP assembles the net/http benchmark with the given handler
// policy and builder options.
func buildHTTP(kind core.BackendKind, policy string, opts ...core.Option) (*core.Program, error) {
	b := core.NewBuilder(kind, opts...)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{httpserv.Pkg, httpserv.HandlerPkg},
		Origin:  "app", LOC: 31,
	})
	httpserv.Register(b)
	b.Enclosure("handler", "main", policy, httpserv.HandlerBody, httpserv.HandlerPkg)
	return b.Build()
}

// driveHTTP runs the closed request loop, returning completed requests
// and the measured in-simulation nanoseconds.
func driveHTTP(prog *core.Program, requests int) (int, int64, error) {
	const port = 8080
	ready := make(chan struct{})
	var reqs int
	var elapsed int64
	var buf []byte // the closed-loop client's response buffer
	err := prog.Run(func(t *core.Task) error {
		srv := t.Go("http-server", func(t *core.Task) error {
			_, err := t.Call(httpserv.Pkg, "Serve", httpserv.ServeArgs{
				Port:    port,
				Handler: prog.MustEnclosure("handler"),
				Ready:   ready,
			})
			return err
		})
		<-ready
		// Warm-up request, then the measured closed loop.
		if _, err := HTTPGet(prog.Net(), port, "/warmup", &buf); err != nil {
			return err
		}
		start := prog.Clock().Now()
		for i := 0; i < requests; i++ {
			n, err := HTTPGet(prog.Net(), port, "/", &buf)
			if err != nil {
				return fmt.Errorf("request %d: %w", i, err)
			}
			if n != httpserv.PageSize13KB {
				return fmt.Errorf("request %d: body %dB, want %dB", i, n, httpserv.PageSize13KB)
			}
			reqs++
		}
		elapsed = prog.Clock().Now() - start
		if _, err := HTTPGet(prog.Net(), port, "/quit", &buf); err != nil {
			return err
		}
		return srv.Join()
	})
	return reqs, elapsed, err
}

// RunHTTP reproduces the Table 2 HTTP row: Go's net/http server with
// the request handler enclosed (no packages, no system calls), serving
// a 13KB in-memory page. Baseline ≈16991 req/s; LB_MPK 1.02×;
// LB_VTX 1.77× (system-call dominated).
func RunHTTP(kind core.BackendKind) (MacroResult, error) {
	prog, err := buildHTTP(kind, HTTPHandlerPolicy)
	if err != nil {
		return MacroResult{}, err
	}
	reqs, elapsed, err := driveHTTP(prog, HTTPRequests)
	if err != nil {
		return MacroResult{}, err
	}
	return MacroResult{
		Benchmark: "HTTP",
		Backend:   kind,
		Raw:       float64(reqs) / (float64(elapsed) / 1e9),
		Unit:      "reqs/s",
		Counters:  prog.Counters().Snapshot(),
	}, nil
}

// buildFastHTTP assembles the FastHTTP benchmark with the given server
// policy and builder options.
func buildFastHTTP(kind core.BackendKind, policy string, opts ...core.Option) (*core.Program, error) {
	b := core.NewBuilder(kind, opts...)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{fasthttp.Pkg},
		Vars:    map[string]int{"db_password": 64}, // the sensitive state the server must never see
		Origin:  "app", LOC: 76,
	})
	fasthttp.Register(b)
	b.Enclosure("server", "main", policy,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call(fasthttp.Pkg, "Serve", args[0])
		}, fasthttp.Pkg)
	return b.Build()
}

// driveFastHTTP runs the closed request loop against the enclosed
// server, returning completed requests and measured nanoseconds.
func driveFastHTTP(prog *core.Program, requests int) (int, int64, error) {
	const port = 8081
	ready := make(chan struct{})
	reqCh := make(chan fasthttp.Request, 16)
	page := httpserv.StaticPage()
	var reqs int
	var elapsed int64
	var buf []byte // the closed-loop client's response buffer
	err := prog.Run(func(t *core.Task) error {
		handler := t.Go("trusted-handler", func(t *core.Task) error {
			return fasthttp.HandleLoop(t, reqCh, page)
		})
		srv := t.Go("fasthttp-server", func(t *core.Task) error {
			_, err := prog.MustEnclosure("server").Call(t, fasthttp.ServeArgs{
				Port:  port,
				Reqs:  reqCh,
				Ready: ready,
			})
			return err
		})
		<-ready
		if _, err := HTTPGet(prog.Net(), port, "/warmup", &buf); err != nil {
			return err
		}
		start := prog.Clock().Now()
		for i := 0; i < requests; i++ {
			n, err := HTTPGet(prog.Net(), port, "/", &buf)
			if err != nil {
				return fmt.Errorf("request %d: %w", i, err)
			}
			if n != httpserv.PageSize13KB {
				return fmt.Errorf("request %d: body %dB, want %dB", i, n, httpserv.PageSize13KB)
			}
			reqs++
		}
		elapsed = prog.Clock().Now() - start
		if _, err := HTTPGet(prog.Net(), port, "/quit", &buf); err != nil {
			return err
		}
		if err := srv.Join(); err != nil {
			return err
		}
		return handler.Join()
	})
	return reqs, elapsed, err
}

// RunFastHTTP reproduces the Table 2 FastHTTP row: the server runs
// inside an enclosure limited to socket-flavoured system calls and
// forwards requests to a trusted handler goroutine over a channel.
// Baseline ≈22867 req/s; LB_MPK 1.04×; LB_VTX 2.01×.
func RunFastHTTP(kind core.BackendKind) (MacroResult, error) {
	prog, err := buildFastHTTP(kind, fasthttp.Policy)
	if err != nil {
		return MacroResult{}, err
	}
	reqs, elapsed, err := driveFastHTTP(prog, HTTPRequests)
	if err != nil {
		return MacroResult{}, err
	}
	return MacroResult{
		Benchmark: "FastHTTP",
		Backend:   kind,
		Raw:       float64(reqs) / (float64(elapsed) / 1e9),
		Unit:      "reqs/s",
		Counters:  prog.Counters().Snapshot(),
	}, nil
}

// HTTPTCB and FastHTTPTCB return the remaining Table 2 TCB rows.
func HTTPTCB() TCBRow {
	return TCBRow{App: "HTTP", AppLOC: 31} // stdlib-only: no public deps
}

// FastHTTPTCB returns FastHTTP's TCB row.
func FastHTTPTCB() TCBRow {
	return TCBRow{
		App: "FastHTTP", AppLOC: 76, EnclosedLOC: fasthttp.EnclosedLOC(),
		Stars: 13100, Contributors: 100, PublicDeps: 3,
	}
}
