package bench

import (
	"fmt"
	"strings"
	"sync"

	"github.com/litterbox-project/enclosure/internal/apps/fasthttp"
	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/apps/wiki"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
	"github.com/litterbox-project/enclosure/internal/simdb"
)

// ScaleWorkerCounts is the virtual-CPU sweep of the scaling table.
var ScaleWorkerCounts = []int{1, 2, 4, 8}

// ScaleBackends are the backends the scaling table sweeps. LB_CHERI is
// a projection and stays out of the multi-core experiment.
var ScaleBackends = []core.BackendKind{core.Baseline, core.MPK, core.VTX}

// ScaleApps names the applications in the scaling table, in render order.
var ScaleApps = []string{"HTTP", "FastHTTP", "wiki"}

// ScaleRequests is the measured request count per cell — divisible by
// every worker count and by the client concurrency so the closed loop
// splits evenly.
const ScaleRequests = 240

// ScaleEntry is one cell of the scaling table: one application on one
// backend at one worker count.
type ScaleEntry struct {
	App        string  `json:"app"`
	Backend    string  `json:"backend"`
	Workers    int     `json:"workers"`
	ReqsPerSec float64 `json:"reqs_per_sec"`
	// Speedup is aggregate throughput relative to the same app and
	// backend at one worker.
	Speedup float64 `json:"speedup"`
	// Steals counts jobs executed by a worker other than the one the
	// acceptor preferred, during the measured window.
	Steals int64 `json:"steals"`
	// MaxQueueDepth is the high-water run-queue depth across workers.
	MaxQueueDepth int64 `json:"max_queue_depth"`
	// Shed counts connections dropped by admission backpressure.
	Shed int64 `json:"shed"`
}

// scaleCell drives one (app, backend, workers) measurement. The load
// generator is closed-loop with 2×workers concurrent host clients —
// enough in-flight connections to keep every run queue non-empty
// without overflowing the admission bound.
func scaleCell(app string, kind core.BackendKind, workers int, opts ...core.Option) (ScaleEntry, error) {
	switch app {
	case "HTTP":
		return scaleHTTP(kind, workers, opts...)
	case "FastHTTP":
		return scaleFastHTTP(kind, workers, opts...)
	case "wiki":
		return scaleWiki(kind, workers, opts...)
	}
	return ScaleEntry{}, fmt.Errorf("bench: unknown scale app %q", app)
}

// driveLoad fires total closed-loop requests from conc concurrent host
// clients, each validating its responses with check.
func driveLoad(total, conc int, check func() error) error {
	var wg sync.WaitGroup
	errs := make(chan error, conc)
	per := total / conc
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := check(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// measure wraps a load run with engine metric snapshots and turns the
// deltas into a ScaleEntry. Elapsed virtual time is the maximum
// per-worker clock advance — the wall clock of a machine whose cores
// run in parallel.
func measure(app string, kind core.BackendKind, e *engine.Engine, srv *engine.Server, load func() error) (ScaleEntry, error) {
	before := e.Metrics()
	if err := load(); err != nil {
		return ScaleEntry{}, err
	}
	after := e.Metrics()
	elapsed := engine.ElapsedNs(before, after)
	if elapsed <= 0 {
		return ScaleEntry{}, fmt.Errorf("bench: %s/%s: no virtual time elapsed", app, kind)
	}
	entry := ScaleEntry{
		App:           app,
		Backend:       kind.String(),
		Workers:       len(after),
		ReqsPerSec:    float64(ScaleRequests) / (float64(elapsed) / 1e9),
		Steals:        engine.TotalSteals(after) - engine.TotalSteals(before),
		MaxQueueDepth: engine.MaxQueueDepth(after),
		Shed:          srv.Shed(),
	}
	return entry, nil
}

// scaleHTTP runs net/http with the enclosed request handler across the
// engine's workers.
func scaleHTTP(kind core.BackendKind, workers int, opts ...core.Option) (ScaleEntry, error) {
	b := core.NewBuilder(kind, opts...)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{httpserv.Pkg, httpserv.HandlerPkg},
		Origin:  "app", LOC: 31,
	})
	httpserv.Register(b)
	b.Enclosure("handler", "main", "sys:none", httpserv.HandlerBody, httpserv.HandlerPkg)
	prog, err := b.Build()
	if err != nil {
		return ScaleEntry{}, err
	}

	e := engine.New(prog, engine.Opts{Workers: workers})
	defer e.Close()
	const port = 8180
	srv, err := httpserv.ServeEngine(e, port, prog.MustEnclosure("handler"))
	if err != nil {
		return ScaleEntry{}, err
	}
	defer srv.Close()

	conc := 2 * workers
	get := func() error {
		n, err := httpGet(prog.Net(), port, "/")
		if err != nil {
			return err
		}
		if n != httpserv.PageSize13KB {
			return fmt.Errorf("body %dB, want %dB", n, httpserv.PageSize13KB)
		}
		return nil
	}
	// Warm-up: one request per client primes every worker's buffers.
	if err := driveLoad(conc, conc, get); err != nil {
		return ScaleEntry{}, err
	}
	return measure("HTTP", kind, e, srv, func() error {
		return driveLoad(ScaleRequests, conc, get)
	})
}

// scaleFastHTTP runs the enclosed FastHTTP server across the engine's
// workers, entering the server enclosure per accepted connection.
func scaleFastHTTP(kind core.BackendKind, workers int, opts ...core.Option) (ScaleEntry, error) {
	b := core.NewBuilder(kind, opts...)
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
		return ScaleEntry{}, err
	}

	e := engine.New(prog, engine.Opts{Workers: workers})
	defer e.Close()
	const port = 8181
	srv, stop, err := fasthttp.ServeEngine(e, port, prog.MustEnclosure("server"), httpserv.StaticPage())
	if err != nil {
		return ScaleEntry{}, err
	}

	conc := 2 * workers
	get := func() error {
		n, err := httpGet(prog.Net(), port, "/")
		if err != nil {
			return err
		}
		if n != httpserv.PageSize13KB {
			return fmt.Errorf("body %dB, want %dB", n, httpserv.PageSize13KB)
		}
		return nil
	}
	if err := driveLoad(conc, conc, get); err != nil {
		return ScaleEntry{}, err
	}
	entry, err := measure("FastHTTP", kind, e, srv, func() error {
		return driveLoad(ScaleRequests, conc, get)
	})
	srv.Close()
	e.Close()
	if serr := stop(); serr != nil && err == nil {
		err = serr
	}
	return entry, err
}

// scaleWiki runs the two-enclosure wiki across the engine's workers:
// each worker owns a ○B buffer set, a glue task, and a ○C db-proxy
// task with its own database connection.
func scaleWiki(kind core.BackendKind, workers int, opts ...core.Option) (ScaleEntry, error) {
	b := core.NewBuilder(kind, opts...)
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
		return ScaleEntry{}, err
	}

	db, err := simdb.Start(prog.Net())
	if err != nil {
		return ScaleEntry{}, err
	}
	defer db.Close()
	db.Put("welcome", []byte("hello from the enclosure wiki"))

	e := engine.New(prog, engine.Opts{Workers: workers})
	defer e.Close()
	const port = 8190
	srv, stop, err := wiki.ServeEngine(e, port,
		prog.MustEnclosure("http-server"), prog.MustEnclosure("db-proxy"))
	if err != nil {
		return ScaleEntry{}, err
	}

	conc := 2 * workers
	view := func() error {
		body, err := wikiView(prog.Net(), port, "welcome")
		if err != nil {
			return err
		}
		if !strings.Contains(body, "hello from the enclosure wiki") {
			return fmt.Errorf("view mismatch: %.80q", body)
		}
		return nil
	}
	if err := driveLoad(conc, conc, view); err != nil {
		return ScaleEntry{}, err
	}
	entry, err := measure("wiki", kind, e, srv, func() error {
		return driveLoad(ScaleRequests, conc, view)
	})
	srv.Close()
	e.Close()
	if serr := stop(); serr != nil && err == nil {
		err = serr
	}
	return entry, err
}

// runScale sweeps the full scaling matrix: every app × backend ×
// worker count, with speedups computed against each pair's one-worker
// cell. Options apply to every cell's program — pass
// core.WithTracer(tr) to collect one merged trace over the sweep.
func runScale(opts ...core.Option) ([]ScaleEntry, error) {
	var out []ScaleEntry
	base := make(map[string]float64) // app/backend → 1-worker reqs/s
	for _, app := range ScaleApps {
		for _, kind := range ScaleBackends {
			for _, w := range ScaleWorkerCounts {
				entry, err := scaleCell(app, kind, w, opts...)
				if err != nil {
					return nil, fmt.Errorf("bench: scale %s/%s/%d workers: %w", app, kind, w, err)
				}
				key := app + "/" + entry.Backend
				if w == 1 {
					base[key] = entry.ReqsPerSec
				}
				if b := base[key]; b > 0 {
					entry.Speedup = entry.ReqsPerSec / b
				}
				out = append(out, entry)
			}
		}
	}
	return out, nil
}

// renderScaleTable formats the scaling sweep.
func renderScaleTable(entries []ScaleEntry) string {
	var sb strings.Builder
	sb.WriteString("Scaling: aggregate throughput across engine workers (virtual CPUs).\n")
	sb.WriteString("Elapsed virtual time is the max per-worker clock advance; speedup is\n")
	sb.WriteString("relative to the same app and backend on one worker.\n\n")
	fmt.Fprintf(&sb, "%-10s %-10s %8s %12s %9s %8s %9s %6s\n",
		"App", "Backend", "Workers", "reqs/s", "speedup", "steals", "maxdepth", "shed")
	var prev string
	for _, e := range entries {
		key := e.App + "/" + e.Backend
		if prev != "" && key != prev {
			sb.WriteByte('\n')
		}
		prev = key
		fmt.Fprintf(&sb, "%-10s %-10s %8d %12.0f %8.2fx %8d %9d %6d\n",
			e.App, e.Backend, e.Workers, e.ReqsPerSec, e.Speedup, e.Steals, e.MaxQueueDepth, e.Shed)
	}
	return sb.String()
}
