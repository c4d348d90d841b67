package httpserv_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// warmRequestAllocs bounds the heap allocations of one 13 KB page
// request served through a stepped engine on MPK with a warm pool:
// connection pair, request, job, a recycled snapshot instance, the
// connection state allocated in the instance, the handler enclosure
// and the response read into a reused client buffer. It reads 20 on
// linux/amd64 with Go 1.24. A recycled instance keeps its worker
// context and the sections, spans, arenas and span names of what its
// last tenant mapped, so neither the worker nor the connection state's
// spans cost an allocation; building both afresh made it 43. A task
// with its CPU, package stack and stack frames in separate
// allocations, a worker context with its clock, counters and fault
// domain in separate allocations, a token-check closure per switch, a
// stream pair in six allocations and run-queue lanes that reallocate
// made it 63.
const warmRequestAllocs = 22

// errNotWarm fails a job the engine ran on the shared program instead
// of a snapshot instance.
var errNotWarm = errors.New("job ran outside a warm instance")

// TestEngineWarmRequestAllocs pins warmRequestAllocs.
func TestEngineWarmRequestAllocs(t *testing.T) {
	b := core.NewBuilder(core.MPK, core.WithWarmPool(4))
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{httpserv.Pkg, httpserv.HandlerPkg},
		Origin:  "app",
	})
	httpserv.Register(b)
	b.Enclosure("handler", "main", "sys:none", httpserv.HandlerBody, httpserv.HandlerPkg)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(prog, engine.Opts{Workers: 1})
	defer e.Close()
	if e.WarmTemplate() == nil {
		t.Fatal("the engine did not capture a warm template")
	}
	req := []byte("GET / HTTP/1.1\r\nHost: pin\r\n\r\n")
	sep := []byte("\r\n\r\n")
	resp := make([]byte, 32*1024)
	request := func() {
		client, server := simnet.Pair()
		defer client.Close()
		if _, err := client.Write(req); err != nil {
			t.Fatal(err)
		}
		if err := e.Submit(engine.JobSpec{Name: "page", Fn: func(t *core.Task) error {
			p := t.Prog()
			if !p.IsSnapshotInstance() {
				return errNotWarm
			}
			st := httpserv.AllocConnState(t)
			_, err := t.Call(httpserv.Pkg, "ServeConn", st, uint64(t.Worker().Proc().InjectConn(server)), p.MustEnclosure("handler"))
			return err
		}}); err != nil {
			t.Fatal(err)
		}
		if r, ok := e.StepWorker(0); !ok || r.Err != nil {
			t.Fatalf("step: ran %v, err %v", ok, r.Err)
		}
		n := 0
		for {
			m, err := client.Read(resp[n:])
			n += m
			if err != nil {
				break
			}
		}
		if i := bytes.Index(resp[:n], sep); i < 0 || n-i-len(sep) != httpserv.PageSize13KB {
			t.Fatalf("response of %d bytes is not the 13 KB page", n)
		}
	}
	request() // fill the worker's pool with a used instance, warm the block pool
	allocs := testing.AllocsPerRun(50, request)
	t.Logf("%.1f allocs per warm request", allocs)
	const want = warmRequestAllocs + poolDropAllocs
	if allocs > want {
		t.Fatalf("one warm request allocates %.1f objects, want at most %d", allocs, want)
	}
}

// TestWarmConnHandler: on a warm engine every request runs in its own
// recycled instance, whose worker context outlives the recycle. The
// handler must not hand a request the connection state an earlier
// tenant allocated in memory the recycle reverted: fifty requests on
// one worker serve the page, each from its own state, and leave no
// task behind.
func TestWarmConnHandler(t *testing.T) {
	prog, err := httpserv.Program(core.MPK, httpserv.HandlerPolicy, core.WithWarmPool(2))
	if err != nil {
		t.Fatal(err)
	}
	serve := httpserv.NewConnHandler(prog.MustEnclosure("handler"))
	e := engine.New(prog, engine.Opts{Workers: 1})
	defer e.Close()
	if e.WarmTemplate() == nil {
		t.Fatal("the engine did not capture a warm template")
	}
	req := []byte("GET / HTTP/1.1\r\nHost: warm\r\n\r\n")
	sep := []byte("\r\n\r\n")
	resp := make([]byte, 32*1024)
	goroutines := runtime.NumGoroutine()
	for i := range 50 {
		client, server := simnet.Pair()
		if _, err := client.Write(req); err != nil {
			t.Fatal(err)
		}
		if err := e.Submit(engine.JobSpec{Name: "page", Fn: func(t *core.Task) error {
			if !t.Prog().IsSnapshotInstance() {
				return errNotWarm
			}
			return serve(t, t.Worker().Proc().InjectConn(server))
		}}); err != nil {
			t.Fatal(err)
		}
		if r, ok := e.StepWorker(0); !ok || r.Err != nil {
			t.Fatalf("request %d: ran %v, err %v", i, ok, r.Err)
		}
		n := 0
		for {
			m, err := client.Read(resp[n:])
			n += m
			if err != nil {
				break
			}
		}
		client.Close()
		if at := bytes.Index(resp[:n], sep); at < 0 || n-at-len(sep) != httpserv.PageSize13KB {
			t.Fatalf("request %d: response of %d bytes is not the 13 KB page", i, n)
		}
	}
	if n := runtime.NumGoroutine(); n > goroutines+2 {
		t.Fatalf("50 warm requests left %d goroutines running, %d before them", n, goroutines)
	}
}
