package wiki_test

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure"
	"github.com/litterbox-project/enclosure/internal/apps/wiki"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/simdb"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// TestEngineStopSurfacesFault: when a per-worker task faults, the
// NewConnHandler stop function joins every worker's Handle errors, and
// the fault must stay extractable from that joined error via AsFault —
// the regression for faults disappearing inside multi-worker shutdown.
//
// The db-proxy enclosure here attempts an exfiltration connect after
// its query queue drains (i.e. during stop, once all requests have
// completed), so the fault lands deterministically in the proxy Handle
// that stop() joins.
func TestEngineStopSurfacesFault(t *testing.T) {
	attacker := simnet.Addr{Host: simnet.HostIP(6, 6, 6, 6), Port: 80}
	for _, kind := range []core.BackendKind{core.MPK, core.VTX, core.CHERI} {
		t.Run(kind.String(), func(t *testing.T) {
			b := core.NewBuilder(kind)
			b.Package(core.PackageSpec{
				Name:    "main",
				Imports: []string{wiki.MuxPkg, wiki.PqPkg},
				Vars:    map[string]int{"db_password": 32, "page_templates": 1024},
				Origin:  "app",
			})
			wiki.Register(b)
			b.Enclosure("http-server", "main", wiki.PolicyServer,
				func(t *core.Task, args ...core.Value) ([]core.Value, error) {
					return t.Call(wiki.MuxPkg, "ServeConn", args...)
				}, wiki.MuxPkg)
			b.Enclosure("db-proxy", "main", wiki.PolicyProxy,
				func(t *core.Task, args ...core.Value) ([]core.Value, error) {
					ret, err := t.Call(wiki.PqPkg, "Proxy", args[0])
					if err != nil {
						return ret, err
					}
					// Queue drained: now try to leak to a non-allow-listed
					// host. The connect allowlist denies it and the task
					// faults inside its worker's domain.
					sock, _ := t.Syscall(kernel.NrSocket)
					t.Syscall(kernel.NrConnect, sock, uint64(attacker.Host), uint64(attacker.Port))
					return nil, nil
				}, wiki.PqPkg)
			prog, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			db, err := simdb.Start(prog.Net())
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			db.Put("home", []byte("engine wiki page"))

			e := engine.New(prog, engine.Opts{Workers: 2})
			defer e.Close()
			conn, stop := wiki.NewConnHandler(prog.MustEnclosure("http-server"), prog.MustEnclosure("db-proxy"))

			// Serve a few requests on each worker so workers (and their
			// proxy tasks) exist. Each is a connection pair injected into
			// the stepping worker's process, as the load generator does.
			for i := 0; i < 4; i++ {
				client, server := simnet.Pair()
				if _, err := client.Write([]byte("GET /view/home HTTP/1.1\r\n\r\n")); err != nil {
					t.Fatal(err)
				}
				if err := e.Submit(engine.JobSpec{Pref: i, Name: "view", Fn: func(t *core.Task) error {
					return conn(t, t.Worker().Proc().InjectConn(server))
				}}); err != nil {
					t.Fatal(err)
				}
				if r, ok := e.StepWorker(i % 2); !ok || r.Err != nil {
					t.Fatalf("request %d: stepped=%v err=%v", i, ok, r.Err)
				}
				var resp []byte
				buf := make([]byte, 4096)
				for {
					n, err := client.Read(buf)
					resp = append(resp, buf[:n]...)
					if err != nil {
						break
					}
				}
				client.Close()
				if !strings.Contains(string(resp), "engine wiki page") {
					t.Fatalf("request %d: %.120q", i, string(resp))
				}
			}

			e.Close()
			err = stop()
			if err == nil {
				t.Fatal("stop() lost the proxy fault")
			}
			fault, ok := enclosure.AsFault(err)
			if !ok {
				t.Fatalf("AsFault missed the fault inside the joined stop error: %v", err)
			}
			if fault.Op != "syscall" || fault.Detail() != "connect" {
				t.Errorf("fault = %s %s, want a denied connect", fault.Op, fault.Detail())
			}
			// The requests themselves all succeeded: the fault fired after
			// the drain, inside the worker's own fault domain.
			if f, aborted := prog.Fault(); aborted {
				t.Errorf("whole-program abort leaked out of the worker domain: %v", f)
			}
		})
	}
}

// viewRequestAllocs bounds the heap allocations of one wiki view
// request served through a stepped engine on VTX: connection pair,
// request, job, admission, the http-server enclosure, the glue and
// db-proxy hand-offs, the simulated Postgres round trip and the
// response read into a reused client buffer. The view is a page the
// database does not hold, as in the benchmark's wiki workload. It
// reads 22 on linux/amd64 with Go 1.24, 20 of them in the wiki and
// simdb code and the request's own task, pair and job. A task with its
// CPU, package stack, stack frames and completion queue in separate
// allocations, a token-check closure per switch, a block-queue slice
// per stream and run-queue lanes that reallocate made it 46.
const viewRequestAllocs = 24

// TestEngineViewRequestAllocs pins viewRequestAllocs.
func TestEngineViewRequestAllocs(t *testing.T) {
	b := core.NewBuilder(core.VTX)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{wiki.MuxPkg, wiki.PqPkg},
		Vars:    map[string]int{"db_password": 32, "page_templates": 4096},
		Origin:  "app",
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
		t.Fatal(err)
	}
	db, err := simdb.Start(prog.Net())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	serve, stop := wiki.NewConnHandler(prog.MustEnclosure("http-server"), prog.MustEnclosure("db-proxy"))
	e := engine.New(prog, engine.Opts{Workers: 1})
	defer func() {
		e.Close()
		if err := stop(); err != nil {
			t.Error(err)
		}
	}()
	req := []byte("GET /view/welcome HTTP/1.1\r\nHost: pin\r\n\r\n")
	resp := make([]byte, 4096)
	request := func() {
		client, server := simnet.Pair()
		defer client.Close()
		if _, err := client.Write(req); err != nil {
			t.Fatal(err)
		}
		if err := e.Submit(engine.JobSpec{Name: "view", Fn: func(t *core.Task) error {
			return serve(t, t.Worker().Proc().InjectConn(server))
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
		if !bytes.Contains(resp[:n], []byte("page not found")) {
			t.Fatalf("response %.120q is not the missing page", resp[:n])
		}
	}
	request() // start the worker's glue and proxy tasks, warm the block pool
	allocs := testing.AllocsPerRun(50, request)
	t.Logf("%.1f allocs per view request", allocs)
	const want = viewRequestAllocs + poolDropAllocs
	if allocs > want {
		t.Fatalf("one view request allocates %.1f objects, want at most %d", allocs, want)
	}
}

// TestWarmConnHandler: on a warm engine every request runs in its own
// recycled instance, so the handler's per-worker pipeline — its buffer
// set and its glue and db-proxy tasks — must live for one request.
// Each job starts a database on its instance's network, as a fresh
// instance has none. Fifty requests on one worker render the page and
// leave no task behind.
func TestWarmConnHandler(t *testing.T) {
	prog, err := wiki.Program(core.VTX, wiki.PolicyServer, wiki.PolicyProxy, core.WithWarmPool(2))
	if err != nil {
		t.Fatal(err)
	}
	serve, stop := wiki.NewConnHandler(prog.MustEnclosure("http-server"), prog.MustEnclosure("db-proxy"))
	e := engine.New(prog, engine.Opts{Workers: 1})
	defer e.Close()
	if e.WarmTemplate() == nil {
		t.Fatal("the engine did not capture a warm template")
	}
	req := []byte("GET /view/home HTTP/1.1\r\nHost: warm\r\n\r\n")
	resp := make([]byte, 4096)
	goroutines := runtime.NumGoroutine()
	for i := range 50 {
		client, server := simnet.Pair()
		if _, err := client.Write(req); err != nil {
			t.Fatal(err)
		}
		if err := e.Submit(engine.JobSpec{Name: "view", Fn: func(t *core.Task) error {
			p := t.Prog()
			if !p.IsSnapshotInstance() {
				return errors.New("job ran outside a warm instance")
			}
			db, err := simdb.Start(p.Net())
			if err != nil {
				return err
			}
			defer db.Close()
			db.Put("home", []byte("warm wiki page"))
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
		if !bytes.Contains(resp[:n], []byte("warm wiki page")) {
			t.Fatalf("request %d: response %.120q is not the page", i, resp[:n])
		}
	}
	if n := runtime.NumGoroutine(); n > goroutines+2 {
		t.Fatalf("50 warm requests left %d goroutines running, %d before them", n, goroutines)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
