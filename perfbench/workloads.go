package main

import (
	"fmt"
	"os"

	"github.com/litterbox-project/enclosure/internal/apps/fasthttp"
	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/apps/wiki"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/loadgen"
	"github.com/litterbox-project/enclosure/internal/obs"
	"github.com/litterbox-project/enclosure/internal/simdb"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// workload is one named benchmark input.
type workload struct {
	// round is the size of one measured round: arrivals for the request
	// workloads, traces for probe-sweep. Every round is a complete,
	// seeded run, so its virtual-clock results are fixed by its seed.
	round int
	// start builds the system under test and primes it with one short
	// seeded warm-up round; tr, when non-nil, is attached to the built
	// program (systems that are not traceable ignore it).
	start func(tr *obs.Trace) (system, error)
}

// system is a built workload that runs rounds.
type system interface {
	// run executes one round of n arrivals (or traces) under seed.
	run(seed int64, n int) (det, error)
	// traceable reports whether start attaches a tracer.
	traceable() bool
	// maxQueueDepth is the engine's run-queue high-water mark.
	maxQueueDepth() int64
	Close() error
}

// det is everything one round measures on the virtual clock or by
// count. It is fixed by the seeds of the round and of the rounds before
// it, so the same round in another process, traced or not, must
// reproduce it bit for bit.
type det struct {
	Attempted, Failed int64
	Jobs              int64 // requests executed (calibration and warm-up included) or probe traces
	ProbeOps          int64 // probe trace operations (0 for request workloads)

	Workers                     int
	P99, P999, MeanLat, MeanSvc int64 // virtual ns
	ServiceNs, RespBytes        int64 // sums over Jobs
	Counts                      hw.CounterSnapshot

	Steals, Spills, EnvHits, EnvMiss               int64
	PoolHits, PoolMiss, Discards, Clones, Recycles int64
	Invalid, Leaks, Fallbacks                      int64
}

// work is the part of a round's results that depends only on the
// requests its seed generates, not on how the engine scheduled them:
// the engine's queue state (class round-robin weights, steal victims)
// carries over between rounds, so latencies and steals of a repeated
// seed may differ, but the virtual work each request does may not.
func (d det) work() det {
	return det{
		Attempted: d.Attempted, Failed: d.Failed, Jobs: d.Jobs, ProbeOps: d.ProbeOps,
		MeanSvc: d.MeanSvc, ServiceNs: d.ServiceNs, RespBytes: d.RespBytes, Counts: d.Counts,
		Invalid: d.Invalid, Leaks: d.Leaks, Fallbacks: d.Fallbacks,
	}
}

// ops is the round's unit of host work: requests, or probe operations.
func (d det) ops() int64 {
	if d.ProbeOps > 0 {
		return d.ProbeOps
	}
	return d.Jobs
}

// warmupArrivals is the size of the warm-up round each start runs;
// loadgenWarmup is loadgen's per-round warm-up count; workers is the
// number of virtual CPUs every request workload's engine steps.
const (
	warmupArrivals = 256
	loadgenWarmup  = 64
	workers        = 8
)

var workloads = map[string]workload{
	"fasthttp-mix": {round: 20000, start: startFastHTTP},
	"wiki-vtx":     {round: 50000, start: startWiki},
	"http-warm":    {round: 20000, start: startHTTPWarm},
	"probe-sweep":  {round: 500, start: startProbe},
}

// reqSystem is a request workload: an enclosed app on a manual-mode
// engine, driven by loadgen through this type's loadgen.Target
// implementation. Each job carries the whole request: the client
// writes it before the server's virtual work and checks the response
// after, at host level, so the client never bills the virtual clock.
type reqSystem struct {
	name    string
	backend core.BackendKind
	prog    *core.Program
	eng     *engine.Engine
	spec    loadgen.Spec
	kinds   []string
	wire    map[string][]byte
	want    map[string]expect
	serve   func(t *core.Task, fd int) error
	stops   []func() error

	cl    client
	tally det // accumulated by the running round's jobs
}

func (s *reqSystem) Name() string           { return s.name }
func (s *reqSystem) Backend() string        { return s.backend.String() }
func (s *reqSystem) Engine() *engine.Engine { return s.eng }
func (s *reqSystem) Kinds() []string        { return s.kinds }
func (s *reqSystem) traceable() bool        { return true }

func (s *reqSystem) maxQueueDepth() int64 { return engine.MaxQueueDepth(s.eng.Metrics()) }

// NewRequest builds one request job over a fresh simnet pair. The
// manual-mode engine runs one job at a time on the stepping goroutine,
// so the jobs share the client's buffer and the round's tally.
func (s *reqSystem) NewRequest(kind string) engine.Job {
	conn, peer := simnet.Pair()
	_, werr := conn.Write(s.wire[kind])
	return func(t *core.Task) error {
		// The engine's run queue can keep a finished job's closure
		// reachable; drop the connection so it does not pin the buffers.
		client, server := conn, peer
		conn, peer = nil, nil
		defer client.Close()
		wc, pc := t.Worker().Counters().Snapshot(), t.Prog().Counters().Snapshot()
		clock := t.Worker().Clock()
		v0 := clock.Now()
		err := werr
		if err == nil {
			err = s.serve(t, t.Worker().Proc().InjectConn(server))
		}
		if err == nil {
			var n int
			n, err = s.cl.check(client, s.want[kind])
			s.tally.RespBytes += int64(n)
		}
		s.tally.ServiceNs += clock.Now() - v0
		s.tally.Counts = addCounts(s.tally.Counts, subCounts(t.Worker().Counters().Snapshot(), wc))
		s.tally.Counts = addCounts(s.tally.Counts, subCounts(t.Prog().Counters().Snapshot(), pc))
		s.tally.Jobs++
		if s.tally.Jobs%refEvery == 0 {
			ref.slice()
		}
		if err != nil {
			if s.tally.Invalid == 0 {
				fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", s.name, kind, err)
			}
			s.tally.Invalid++
		}
		return nil
	}
}

// run drives one open-loop round through loadgen and folds in the
// engine and warm-pool counters it moved.
func (s *reqSystem) run(seed int64, n int) (det, error) {
	s.tally = det{}
	ms0 := s.eng.Metrics()
	ws0, _ := s.eng.WarmStats()
	c0, r0 := s.templateStats()
	spec := s.spec
	spec.Seed, spec.Requests, spec.Warmup = seed, n, loadgenWarmup
	res, err := loadgen.Run(s, spec)
	if err != nil {
		return det{}, err
	}
	if res.Completed+res.Shed+res.DeadlineRejected != res.Requests {
		return det{}, fmt.Errorf("%s: %d arrivals but %d completed, %d shed, %d rejected",
			s.name, res.Requests, res.Completed, res.Shed, res.DeadlineRejected)
	}
	d := s.tally
	refused := int64(res.Shed + res.DeadlineRejected)
	d.Attempted = d.Jobs + refused
	d.Failed = refused + d.Invalid + d.Leaks + d.Fallbacks
	d.Workers = res.Workers
	d.P99, d.P999, d.MeanLat, d.MeanSvc = res.P99Ns, res.P999Ns, res.MeanNs, res.MeanServiceNs
	d.Steals = res.Steals
	ms1 := s.eng.Metrics()
	for i := range ms1 {
		d.Spills += ms1[i].Spills - ms0[i].Spills
		d.EnvHits += ms1[i].EnvHits - ms0[i].EnvHits
		d.EnvMiss += ms1[i].EnvMiss - ms0[i].EnvMiss
	}
	ws1, _ := s.eng.WarmStats()
	d.PoolHits, d.PoolMiss, d.Discards = ws1.Hits-ws0.Hits, ws1.Misses-ws0.Misses, ws1.Discards-ws0.Discards
	c1, r1 := s.templateStats()
	d.Clones, d.Recycles = c1-c0, r1-r0
	return d, nil
}

func (s *reqSystem) templateStats() (clones, recycles int64) {
	if t := s.eng.WarmTemplate(); t != nil {
		return t.Stats()
	}
	return 0, 0
}

// Close stops the engine and the app's helper tasks.
func (s *reqSystem) Close() error {
	s.eng.Close()
	var first error
	for _, stop := range s.stops {
		if err := stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newReqSystem finishes a request workload: engine, warm-up round.
func newReqSystem(s *reqSystem) (system, error) {
	s.eng = engine.New(s.prog, engine.Opts{Manual: true, Workers: workers})
	if _, err := s.run(warmupSeed, warmupArrivals); err != nil {
		s.Close()
		return nil, fmt.Errorf("%s warm-up: %w", s.name, err)
	}
	return s, nil
}

func builderOpts(tr *obs.Trace, opts ...core.Option) []core.Option {
	if tr != nil {
		opts = append(opts, core.WithTracer(tr))
	}
	return opts
}

func get(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: perfbench\r\n\r\n")
}

// startFastHTTP: enclosed FastHTTP on MPK with a depth-32 syscall ring,
// a 90/10 mix of the 13 KB page (class 0) and the ~258-syscall chunked
// stream (class 2), Poisson arrivals at 0.7 of calibrated capacity.
func startFastHTTP(tr *obs.Trace) (system, error) {
	b := core.NewBuilder(core.MPK, builderOpts(tr, core.WithSyscallRing(32))...)
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
		return nil, err
	}
	page := httpserv.StaticPage()
	conn, stop := fasthttp.NewConnHandler(prog.MustEnclosure("server"), page)
	return newReqSystem(&reqSystem{
		name: "fasthttp-mix", backend: core.MPK, prog: prog,
		spec: loadgen.Spec{
			OfferedLoad: 0.7, Arrivals: loadgen.Poisson,
			Mix: []loadgen.MixEntry{
				{Kind: "page", Weight: 0.9, Class: 0},
				{Kind: "stream", Weight: 0.1, Class: 2},
			},
		},
		kinds: []string{"page", "stream"},
		wire:  map[string][]byte{"page": get("/"), "stream": get("/stream")},
		want: map[string]expect{
			"page":   {body: page},
			"stream": {chunkedLen: fasthttp.StreamBodyBytes},
		},
		serve: conn,
		stops: []func() error{stop},
	})
}

// wikiBody is the exact page a view of "welcome" renders. The database
// does not hold the page: simdb answers a hit with two writes (header,
// then value), and whether the proxy's recv sees them as one or two
// depends on host goroutine timing, which would make a hit's virtual
// cost nondeterministic. A miss is one write.
const wikiBody = "<html><body><h1>welcome</h1><p>page not found</p></body></html>"

// startWiki: the Figure 5 wiki (http-server and db-proxy enclosures
// over a simulated Postgres) on VTX, session think-time arrivals at 0.8.
func startWiki(tr *obs.Trace) (system, error) {
	b := core.NewBuilder(core.VTX, builderOpts(tr)...)
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
		return nil, err
	}
	db, err := simdb.Start(prog.Net())
	if err != nil {
		return nil, err
	}
	conn, stop := wiki.NewConnHandler(prog.MustEnclosure("http-server"), prog.MustEnclosure("db-proxy"))
	return newReqSystem(&reqSystem{
		name: "wiki-vtx", backend: core.VTX, prog: prog,
		spec:  loadgen.Spec{OfferedLoad: 0.8, Arrivals: loadgen.SessionThink},
		kinds: []string{"view"},
		wire:  map[string][]byte{"view": get("/view/welcome")},
		want:  map[string]expect{"view": {body: []byte(wikiBody)}},
		serve: conn,
		stops: []func() error{stop, func() error { db.Close(); return nil }},
	})
}

// startHTTPWarm: net/http on MPK with a warm pool of 4 per worker. Every
// request runs in its own snapshot clone, allocates its connection
// state there, and checks that the clone carries no earlier tenant's
// marker before writing its own. MMPP (bursty) arrivals at 0.6.
func startHTTPWarm(tr *obs.Trace) (system, error) {
	b := core.NewBuilder(core.MPK, builderOpts(tr, core.WithWarmPool(4))...)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{httpserv.Pkg, httpserv.HandlerPkg},
		Vars:    map[string]int{"tenant": 8},
		Origin:  "app", LOC: 31,
	})
	httpserv.Register(b)
	b.Enclosure("handler", "main", "sys:none", httpserv.HandlerBody, httpserv.HandlerPkg)
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	s := &reqSystem{
		name: "http-warm", backend: core.MPK, prog: prog,
		spec:  loadgen.Spec{OfferedLoad: 0.6, Arrivals: loadgen.MMPP},
		kinds: []string{"page"},
		wire:  map[string][]byte{"page": get("/")},
		want:  map[string]expect{"page": {body: httpserv.StaticPage()}},
	}
	s.serve = func(t *core.Task, fd int) error {
		p := t.Prog()
		if !p.IsSnapshotInstance() {
			// The engine fell back to the shared program: serve, but
			// count the silent fallback as a failure.
			s.tally.Fallbacks++
		} else {
			marker, err := p.VarRef("main", "tenant")
			if err != nil {
				return err
			}
			if t.Load64(marker.Addr) != 0 {
				s.tally.Leaks++
			}
			t.Store64(marker.Addr, uint64(s.tally.Jobs)+1)
		}
		st := httpserv.AllocConnState(t)
		_, err := t.Call(httpserv.Pkg, "ServeConn", st, uint64(fd), p.MustEnclosure("handler"))
		return err
	}
	return newReqSystem(s)
}

// warmupSeed seeds the warm-up round every start runs. It is the same
// for every --seed, so set-up does the same work in every run.
const warmupSeed = 999

// roundSeed derives the seed of the i-th distinct measured round.

func roundSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

func addCounts(a, b hw.CounterSnapshot) hw.CounterSnapshot {
	return hw.CounterSnapshot{
		Switches: a.Switches + b.Switches, WRPKRUWrites: a.WRPKRUWrites + b.WRPKRUWrites,
		VMExits: a.VMExits + b.VMExits, GuestSyscalls: a.GuestSyscalls + b.GuestSyscalls,
		Syscalls: a.Syscalls + b.Syscalls, BPFRuns: a.BPFRuns + b.BPFRuns,
		Transfers: a.Transfers + b.Transfers, PkeyMprotects: a.PkeyMprotects + b.PkeyMprotects,
		PTWalks: a.PTWalks + b.PTWalks, Faults: a.Faults + b.Faults,
		RingBatches: a.RingBatches + b.RingBatches, RingEntries: a.RingEntries + b.RingEntries,
	}
}

func subCounts(a, b hw.CounterSnapshot) hw.CounterSnapshot {
	return hw.CounterSnapshot{
		Switches: a.Switches - b.Switches, WRPKRUWrites: a.WRPKRUWrites - b.WRPKRUWrites,
		VMExits: a.VMExits - b.VMExits, GuestSyscalls: a.GuestSyscalls - b.GuestSyscalls,
		Syscalls: a.Syscalls - b.Syscalls, BPFRuns: a.BPFRuns - b.BPFRuns,
		Transfers: a.Transfers - b.Transfers, PkeyMprotects: a.PkeyMprotects - b.PkeyMprotects,
		PTWalks: a.PTWalks - b.PTWalks, Faults: a.Faults - b.Faults,
		RingBatches: a.RingBatches - b.RingBatches, RingEntries: a.RingEntries - b.RingEntries,
	}
}
