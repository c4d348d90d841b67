package bench

import (
	"github.com/litterbox-project/enclosure/internal/apps/fasthttp"
	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/core"
)

// HTTPRequests is the closed-loop request count per backend run.
const HTTPRequests = 400

// httpLoop is the net/http app's closed loop on port: its serial
// Serve accept loop dispatching into the "handler" enclosure, loaded
// with n requests for the 13KB page.
func httpLoop(prog *core.Program, port uint16, n int) closedLoop {
	server := serialTask{"http-server", func(t *core.Task, ready chan<- struct{}) error {
		_, err := t.Call(httpserv.Pkg, "Serve", httpserv.ServeArgs{
			Port:    port,
			Handler: prog.MustEnclosure("handler"),
			Ready:   ready,
		})
		return err
	}}
	return pageLoop(port, []serialTask{server}, n, "/", httpserv.PageSize13KB)
}

// RunHTTP reproduces the Table 2 HTTP row: Go's net/http server with
// the request handler enclosed (no packages, no system calls), serving
// a 13KB in-memory page. Baseline ≈16991 req/s; LB_MPK 1.02×;
// LB_VTX 1.77× (system-call dominated).
func RunHTTP(kind core.BackendKind) (MacroResult, error) {
	prog, err := httpserv.Program(kind, httpserv.HandlerPolicy)
	if err != nil {
		return MacroResult{}, err
	}
	rate, err := runClosedLoop(prog, httpLoop(prog, 8080, HTTPRequests))
	return serialResult("HTTP", kind, prog, rate, err)
}

// fastHTTPLoop is FastHTTP's closed loop on port: the trusted handler
// task and the serial accept loop inside the "server" enclosure, loaded
// with n requests for path whose bodies must be want bytes.
func fastHTTPLoop(prog *core.Program, port uint16, n int, path string, want int) closedLoop {
	reqs := make(chan fasthttp.Request, 16)
	page := httpserv.StaticPage()
	handler := serialTask{"trusted-handler", func(t *core.Task, ready chan<- struct{}) error {
		close(ready)
		return fasthttp.HandleLoop(t, reqs, page)
	}}
	server := serialTask{"fasthttp-server", func(t *core.Task, ready chan<- struct{}) error {
		_, err := prog.MustEnclosure("server").Call(t, fasthttp.ServeArgs{
			Port:  port,
			Reqs:  reqs,
			Ready: ready,
		})
		return err
	}}
	return pageLoop(port, []serialTask{handler, server}, n, path, want)
}

// RunFastHTTP reproduces the Table 2 FastHTTP row: the server runs
// inside an enclosure limited to socket-flavoured system calls and
// forwards requests to a trusted handler goroutine over a channel.
// Baseline ≈22867 req/s; LB_MPK 1.04×; LB_VTX 2.01×.
func RunFastHTTP(kind core.BackendKind) (MacroResult, error) {
	prog, err := fasthttp.Program(kind, fasthttp.Policy)
	if err != nil {
		return MacroResult{}, err
	}
	rate, err := runClosedLoop(prog, fastHTTPLoop(prog, 8081, HTTPRequests, "/", httpserv.PageSize13KB))
	return serialResult("FastHTTP", kind, prog, rate, err)
}

// serialResult is the Table 2 / Figure 5 cell of a serial run's
// throughput.
func serialResult(name string, kind core.BackendKind, prog *core.Program, rate float64, err error) (MacroResult, error) {
	if err != nil {
		return MacroResult{}, err
	}
	return MacroResult{
		Benchmark: name,
		Backend:   kind,
		Raw:       rate,
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
