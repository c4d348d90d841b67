package loadgen

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/cluster"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

func httpTarget(t *testing.T, kind core.BackendKind, opts EngineOpts) Target {
	t.Helper()
	tg, err := NewTarget("HTTP", kind, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := tg.Close(); err != nil {
			t.Errorf("target close: %v", err)
		}
	})
	return tg
}

// TestArrivalSchedulesMeanAndOrder pins the arrival processes: strictly
// increasing times whose empirical mean interarrival lands within 15%
// of the requested mean.
func TestArrivalSchedulesMeanAndOrder(t *testing.T) {
	const n = 4000
	const mean = 10000.0
	for _, p := range []ArrivalProcess{Poisson, MMPP, SessionThink} {
		rng := rand.New(rand.NewSource(7))
		times := arrivals(p, rng, n, mean, 4, 16)
		if len(times) != n {
			t.Fatalf("%s: %d arrivals, want %d", p, len(times), n)
		}
		for i := 1; i < n; i++ {
			if times[i] <= times[i-1] {
				t.Fatalf("%s: schedule not strictly increasing at %d: %d <= %d", p, i, times[i], times[i-1])
			}
		}
		got := float64(times[n-1]) / float64(n)
		if got < 0.85*mean || got > 1.15*mean {
			t.Errorf("%s: empirical mean interarrival %.0f, want ~%.0f", p, got, mean)
		}
	}
}

// TestMMPPIsBurstier: the squared coefficient of variation of MMPP
// interarrivals must exceed Poisson's (≈1) — otherwise it isn't
// modelling bursts.
func TestMMPPIsBurstier(t *testing.T) {
	const n = 6000
	const mean = 10000.0
	cv2 := func(p ArrivalProcess) float64 {
		rng := rand.New(rand.NewSource(11))
		times := arrivals(p, rng, n, mean, 6, 0)
		var sum, sum2 float64
		prev := int64(0)
		for _, ta := range times {
			d := float64(ta - prev)
			sum += d
			sum2 += d * d
			prev = ta
		}
		m := sum / float64(n)
		return (sum2/float64(n) - m*m) / (m * m)
	}
	pois, mmpp := cv2(Poisson), cv2(MMPP)
	if mmpp < 1.3*pois {
		t.Fatalf("MMPP cv² %.2f not burstier than Poisson cv² %.2f", mmpp, pois)
	}
}

// TestRunDeterministic: same target config, same seed, same result —
// the reproducibility the checked-in BENCH numbers depend on.
func TestRunDeterministic(t *testing.T) {
	spec := Spec{Seed: 42, Requests: 120, Warmup: 8, OfferedLoad: 0.8}
	run := func() Result {
		tg := httpTarget(t, core.MPK, EngineOpts{Workers: 2})
		res, err := Run(tg, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Completed != spec.Requests {
		t.Fatalf("completed %d/%d at 0.8 load (nothing should shed)", a.Completed, spec.Requests)
	}
	if a.P50Ns <= 0 || a.P99Ns < a.P50Ns || a.P999Ns < a.P99Ns || a.MaxNs < a.P999Ns {
		t.Fatalf("percentiles not monotone: %+v", a)
	}
}

// TestOpenLoopMeasuresQueueing is the coordinated-omission property in
// its observable form: at overload the measured tail must contain the
// queueing delay — far above the raw service time — because arrivals
// keep landing on schedule while the server falls behind. A closed-loop
// generator (which waits for each completion before sending the next
// request) would never observe these latencies.
func TestOpenLoopMeasuresQueueing(t *testing.T) {
	light, err := Run(httpTarget(t, core.MPK, EngineOpts{Workers: 1}), Spec{
		Seed: 7, Requests: 150, Warmup: 8, OfferedLoad: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Run(httpTarget(t, core.MPK, EngineOpts{Workers: 1, QueueDepth: 512}), Spec{
		Seed: 7, Requests: 150, Warmup: 8, OfferedLoad: 1.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// At 30% load the p99 stays within a small multiple of service; at
	// 160% the queue grows without bound and p99 must blow past it.
	if light.P99Ns > 6*light.MeanServiceNs {
		t.Fatalf("light load p99 %dns vs service %dns: unexpected queueing", light.P99Ns, light.MeanServiceNs)
	}
	if heavy.P99Ns < 5*heavy.MeanServiceNs {
		t.Fatalf("overload p99 %dns vs service %dns: queueing delay not measured (coordinated omission?)",
			heavy.P99Ns, heavy.MeanServiceNs)
	}
	if heavy.P99Ns <= light.P99Ns {
		t.Fatalf("overload p99 %dns not above light-load p99 %dns", heavy.P99Ns, light.P99Ns)
	}
}

// TestLIFOImprovesP50UnderOverload pins the dequeue-policy trade: at
// >100% offered load, newest-first dequeue serves fresh arrivals
// quickly (better p50) while the abandoned tail absorbs the delay
// (worse p999).
func TestLIFOImprovesP50UnderOverload(t *testing.T) {
	spec := Spec{Seed: 21, Requests: 250, Warmup: 8, OfferedLoad: 1.5}
	fifo, err := Run(httpTarget(t, core.MPK, EngineOpts{Workers: 1, QueueDepth: 64}), spec)
	if err != nil {
		t.Fatal(err)
	}
	lifo, err := Run(httpTarget(t, core.MPK, EngineOpts{
		Workers: 1, QueueDepth: 64, Dequeue: engine.LIFOUnderOverload,
	}), spec)
	if err != nil {
		t.Fatal(err)
	}
	if lifo.P50Ns >= fifo.P50Ns {
		t.Fatalf("LIFO p50 %dns not below FIFO p50 %dns at 1.5x load", lifo.P50Ns, fifo.P50Ns)
	}
	if lifo.MaxNs <= fifo.MaxNs {
		t.Fatalf("LIFO max %dns not above FIFO max %dns — the tail should absorb the delay", lifo.MaxNs, fifo.MaxNs)
	}
}

// TestOverloadSheds: a bounded queue at sustained overload must shed
// through the typed backpressure path, and the shed rate must be
// attributed to measured arrivals only.
func TestOverloadSheds(t *testing.T) {
	res, err := Run(httpTarget(t, core.MPK, EngineOpts{Workers: 1, QueueDepth: 8}), Spec{
		Seed: 3, Requests: 300, Warmup: 8, OfferedLoad: 2.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatal("2x overload on a depth-8 queue shed nothing")
	}
	if res.Completed+res.Shed != res.Requests {
		t.Fatalf("accounting leak: %d completed + %d shed != %d offered", res.Completed, res.Shed, res.Requests)
	}
	if res.ShedRate <= 0 || res.ShedRate >= 1 {
		t.Fatalf("shed rate %.3f out of range", res.ShedRate)
	}
}

// TestDeadlineAdmissionRejectsLateWork: with deadlines tighter than
// the queueing delay at overload, admission rejects infeasible work
// up front instead of serving it late.
func TestDeadlineAdmissionRejectsLateWork(t *testing.T) {
	res, err := Run(httpTarget(t, core.MPK, EngineOpts{Workers: 1, QueueDepth: 64}), Spec{
		Seed: 5, Requests: 250, Warmup: 8, OfferedLoad: 1.5,
		Mix: []MixEntry{{Kind: "page", Weight: 1, DeadlineMult: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineRejected == 0 {
		t.Fatal("overload with 4x-service deadlines rejected nothing")
	}
	if res.Completed+res.Shed+res.DeadlineRejected != res.Requests {
		t.Fatalf("accounting leak: %d + %d + %d != %d",
			res.Completed, res.Shed, res.DeadlineRejected, res.Requests)
	}
	// Admitted work is work the predictor thought feasible: completed
	// requests' p99 must sit well below the no-deadline overload tail.
	plain, err := Run(httpTarget(t, core.MPK, EngineOpts{Workers: 1, QueueDepth: 64}), Spec{
		Seed: 5, Requests: 250, Warmup: 8, OfferedLoad: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.P99Ns >= plain.P99Ns {
		t.Fatalf("deadline admission p99 %dns not below unconstrained overload p99 %dns", res.P99Ns, plain.P99Ns)
	}
}

// TestQoSClassesUnderOverload: with FastHTTP's heavy-tail mix split
// across QoS classes at overload, both classes make progress (weighted,
// not strict priority) and the run completes cleanly.
func TestQoSClassesUnderOverload(t *testing.T) {
	tg, err := NewTarget("FastHTTP", core.MPK, EngineOpts{Workers: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := tg.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	res, err := Run(tg, Spec{
		Seed: 9, Requests: 200, Warmup: 8, OfferedLoad: 1.3, Arrivals: MMPP,
		Mix: []MixEntry{
			{Kind: "page", Weight: 9, Class: 0},
			{Kind: "stream", Weight: 1, Class: 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Completed+res.Shed != res.Requests {
		t.Fatalf("accounting: %+v", res)
	}
	if res.P999Ns < res.P99Ns || res.MeanServiceNs <= 0 {
		t.Fatalf("implausible stats: %+v", res)
	}
}

// TestWikiTargetServes smoke-tests the two-enclosure wiki pipeline
// under the generator on every paper backend.
func TestWikiTargetServes(t *testing.T) {
	for _, kind := range []core.BackendKind{core.Baseline, core.MPK, core.VTX} {
		t.Run(kind.String(), func(t *testing.T) {
			tg, err := NewTarget("wiki", kind, EngineOpts{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := tg.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			res, err := Run(tg, Spec{Seed: 13, Requests: 60, Warmup: 6, OfferedLoad: 0.6, Arrivals: SessionThink})
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != 60 {
				t.Fatalf("completed %d/60", res.Completed)
			}
		})
	}
}

// TestWarmTargetFallbackIsLoud: a target whose program asks for a warm
// pool either runs on the captured template or fails with the
// capture's error. The wiki's database listens on the program's
// network before the engine starts, so its capture fails with
// simnet.ErrNotQuiescent; HTTP and FastHTTP keep their template.
func TestWarmTargetFallbackIsLoud(t *testing.T) {
	if tg, err := NewTarget("wiki", core.MPK, EngineOpts{Workers: 1}, core.WithWarmPool(2)); !errors.Is(err, simnet.ErrNotQuiescent) {
		if err == nil {
			tg.Close()
		}
		t.Fatalf("warm wiki target: %v, want %v", err, simnet.ErrNotQuiescent)
	}
	for _, app := range []string{"HTTP", "FastHTTP"} {
		tg, err := NewTarget(app, core.MPK, EngineOpts{Workers: 1}, core.WithWarmPool(2))
		if err != nil {
			t.Fatalf("warm %s target: %v", app, err)
		}
		if tg.Engine().WarmTemplate() == nil {
			t.Errorf("warm %s target runs without its template", app)
		}
		if err := tg.Close(); err != nil {
			t.Errorf("close %s: %v", app, err)
		}
	}
}

// TestSaturatedThroughputIsCapacity: with every arrival queued at once,
// each worker stays busy from the first measured arrival to the last
// completion, so throughput over that window must be W workers'
// calibrated capacity. Counting only measured completions over a
// window that also drains the warm-up backlog reads low by the
// warm-up share.
func TestSaturatedThroughputIsCapacity(t *testing.T) {
	for _, w := range []int{1, 4} {
		res, err := Run(httpTarget(t, core.MPK, EngineOpts{Workers: w, QueueDepth: 512}), Spec{
			Seed: 1, Requests: 240, OfferedLoad: 1e6,
		})
		if err != nil {
			t.Fatal(err)
		}
		capacity := float64(w) * 1e9 / float64(res.MeanServiceNs)
		if res.Shed != 0 || math.Abs(res.ThroughputRPS-capacity) > 0.01*capacity {
			t.Errorf("%d workers: %.0f reqs/s (shed %d), want capacity %.0f within 1%%",
				w, res.ThroughputRPS, res.Shed, capacity)
		}
	}
}

// TestCheckResponseExactBody: a response body one byte longer than the
// kind's exact length, or missing its expected text, is rejected.
func TestCheckResponseExactBody(t *testing.T) {
	respond := func(body string) *simnet.Conn {
		client, server := simnet.Pair()
		if _, err := server.Write([]byte("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n" + body)); err != nil {
			t.Fatal(err)
		}
		server.Close()
		return client
	}
	page := Expect{Len: httpserv.PageSize13KB}
	view := Expect{Has: "hello"}
	cases := []struct {
		name string
		want Expect
		body string
		ok   bool
	}{
		{"exact page", page, strings.Repeat("x", httpserv.PageSize13KB), true},
		{"page one byte long", page, strings.Repeat("x", httpserv.PageSize13KB+1), false},
		{"page one byte short", page, strings.Repeat("x", httpserv.PageSize13KB-1), false},
		{"view with text", view, "<p>hello</p>", true},
		{"view without text", view, "<p>bye</p>", false},
	}
	var buf []byte // shared, so a short response follows a longer one
	for _, c := range cases {
		err := CheckResponse(respond(c.body), c.want, &buf)
		if (err == nil) != c.ok {
			t.Errorf("%s: err %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestCheckResponseSteadyStateAllocs pins the client side of a page
// request: once its buffer has grown, checking a 13 KiB response
// allocates nothing beyond what reading it takes anyway.
func TestCheckResponseSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	resp := []byte("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n" + strings.Repeat("x", httpserv.PageSize13KB))
	respond := func() *simnet.Conn {
		client, server := simnet.Pair()
		if _, err := server.Write(resp); err != nil {
			t.Fatal(err)
		}
		server.Close()
		return client
	}
	var scratch [32 * 1024]byte
	drain := func() {
		client := respond()
		for {
			if _, err := client.Read(scratch[:]); err != nil {
				return
			}
		}
	}
	var buf []byte
	page := Expect{Len: httpserv.PageSize13KB}
	check := func() {
		if err := CheckResponse(respond(), page, &buf); err != nil {
			t.Fatal(err)
		}
	}
	check() // grow the buffer
	reading, checking := testing.AllocsPerRun(100, drain), testing.AllocsPerRun(100, check)
	if checking > reading {
		t.Fatalf("checking a page response allocates %.1f objects/op, reading it alone %.1f", checking, reading)
	}
}

// TestObserveSplitsWarmupByIndex: a step counts toward latency by its
// arrival index (engine.StepResult.Index), not by its name, and a
// failed request's error names the kind and the index.
func TestObserveSplitsWarmupByIndex(t *testing.T) {
	st := &runState{warmup: 2}
	for i := 0; i < 4; i++ {
		r := engine.StepResult{Name: "page", Index: i, ArrivalVT: 10, CompletionVT: int64(100 + i)}
		if err := st.observe(r); err != nil {
			t.Fatal(err)
		}
	}
	if want := []int64{92, 93}; len(st.latencies) != 2 || st.latencies[0] != want[0] || st.latencies[1] != want[1] {
		t.Fatalf("latencies %v, want %v (arrivals 2 and 3)", st.latencies, want)
	}
	err := st.observe(engine.StepResult{Name: "page", Index: 7, Err: simnet.ErrClosed})
	if err == nil || !strings.Contains(err.Error(), "request page#7 failed") {
		t.Fatalf("failure %v does not name the request", err)
	}
}

// TestClusterOverloadSheds: a one-node cluster offered more arrivals at
// once than its run queues hold sheds the rest through the balancer's
// typed backpressure, as one engine does, and the run still succeeds;
// the same cluster run twice gives the same Result.
func TestClusterOverloadSheds(t *testing.T) {
	run := func() Result {
		tg, _, err := NewClusterTarget("HTTP", core.MPK, cluster.Opts{Nodes: 1, WorkersPerNode: 2, QueueDepth: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := tg.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		res, err := Run(tg, Spec{Seed: 3, Requests: 200, Warmup: 8, OfferedLoad: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical cluster runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Shed == 0 || a.Completed+a.Shed != a.Requests {
		t.Fatalf("a depth-16 cluster offered 208 arrivals at once: %d completed, %d shed of %d", a.Completed, a.Shed, a.Requests)
	}
	if a.Workers != 2 || a.ThroughputRPS <= 0 {
		t.Fatalf("implausible cluster result: %+v", a)
	}
}

// TestClusterTargetMatchesEngine: a one-node cluster serves the same
// requests as the app's engine target with as many workers, so at
// saturation both read the same calibrated service time and capacity.
func TestClusterTargetMatchesEngine(t *testing.T) {
	spec := Spec{Seed: 1, Requests: 64, OfferedLoad: 1e6}
	one, err := Run(httpTarget(t, core.MPK, EngineOpts{Workers: 2, QueueDepth: 512}), spec)
	if err != nil {
		t.Fatal(err)
	}
	tg, _, err := NewClusterTarget("HTTP", core.MPK, cluster.Opts{Nodes: 1, WorkersPerNode: 2, QueueDepth: 512, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tg.Close()
	cl, err := Run(tg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if cl.MeanServiceNs != one.MeanServiceNs || cl.Completed != one.Completed || cl.Shed != 0 {
		t.Fatalf("one-node cluster %+v\nengine %+v", cl, one)
	}
	if _, _, err := NewClusterTarget("wiki", core.MPK, cluster.Opts{}); err == nil {
		t.Fatal("the wiki, which keeps a database, got a cluster target")
	}
}
