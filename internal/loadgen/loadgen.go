package loadgen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"github.com/litterbox-project/enclosure/internal/cluster"
	"github.com/litterbox-project/enclosure/internal/engine"
)

// Target is a system under test: an application served by an engine
// or by a cluster of engine nodes (NewClusterTarget), plus a factory
// that builds one job per request kind. The job carries
// the whole request — the client side runs at host level inside the
// closure (writing the request before the server's virtual work,
// draining the response after), so none of the client's work is billed
// to the program's virtual clock, exactly like the paper's external
// load-generating machine.
type Target interface {
	// Name labels the application in tables.
	Name() string
	// Backend names the enforcement backend under test.
	Backend() string
	// Engine returns the engine the generator steps: nil on a cluster
	// target, whose nodes it steps through the balancer instead.
	Engine() *engine.Engine
	// Kinds lists the request kinds the target serves (the default mix
	// weights them equally).
	Kinds() []string
	// NewRequest builds one job servicing a request of the given kind.
	NewRequest(kind string) engine.Job
	// Close tears the target down (per-worker handler tasks, database).
	Close() error
}

// MixEntry weights one request kind in the offered traffic.
type MixEntry struct {
	// Kind is one of the target's request kinds.
	Kind string
	// Weight is the kind's relative share of arrivals.
	Weight float64
	// Class is the QoS class requests of this kind are submitted under.
	Class int
	// DeadlineMult, when positive, gives each request an absolute
	// deadline of arrival + DeadlineMult × the kind's calibrated
	// service time, enabling deadline-aware admission.
	DeadlineMult float64
}

// Spec configures one open-loop run.
type Spec struct {
	// Seed fixes the run's randomness (arrival draws, kind selection).
	Seed int64
	// Requests is the measured arrival count (after warmup).
	Requests int
	// Warmup arrivals precede the measured ones and are excluded from
	// every statistic but ThroughputRPS, which counts the completions
	// that land after the first measured arrival; they prime
	// per-worker state (buffers, handler tasks, caches). Default 32.
	Warmup int
	// OfferedLoad is the arrival rate as a fraction of the target's
	// calibrated capacity (workers / mean service time): 0.5 is half
	// load, 1.5 is 50% overload. Default 0.5.
	OfferedLoad float64
	// Arrivals selects the arrival process.
	Arrivals ArrivalProcess
	// BurstFactor is the MMPP burst-state rate multiplier (default 4).
	BurstFactor float64
	// Sessions is the SessionThink population size, and on a cluster
	// target the number of sessions the balancer routes arrivals by:
	// arrival i belongs to session i mod Sessions (default 16).
	Sessions int
	// Mix weights the request kinds; empty means every target kind
	// equally at class 0 with no deadline.
	Mix []MixEntry
}

// Result is one run's latency distribution and accounting.
type Result struct {
	Target      string  `json:"app"`
	Backend     string  `json:"backend"`
	Workers     int     `json:"workers"`
	OfferedLoad float64 `json:"offered_load"`
	Arrivals    string  `json:"arrivals"`
	Dequeue     string  `json:"dequeue"`

	Requests         int   `json:"requests"`  // measured arrivals
	Completed        int   `json:"completed"` // measured completions
	Shed             int   `json:"shed"`      // measured ErrBackpressure rejections
	DeadlineRejected int   `json:"deadline_rejected,omitempty"`
	DeadlineMissed   int64 `json:"deadline_missed,omitempty"`

	// MeanServiceNs is the calibrated weighted mean service time — the
	// capacity basis the offered load is computed against.
	MeanServiceNs int64 `json:"mean_service_ns"`

	// Latency percentiles in virtual ns, measured from scheduled
	// arrival to completion (queueing delay included; shed requests
	// excluded — they are accounted by ShedRate, not by latency).
	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P90Ns  int64 `json:"p90_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`
	MaxNs  int64 `json:"max_ns"`

	ShedRate float64 `json:"shed_rate"`
	// ThroughputRPS is completions per virtual second from the first
	// measured arrival to the last completion, counting every
	// completion inside that window (warm-up included).
	ThroughputRPS float64 `json:"reqs_per_sec"`
	Steals        int64   `json:"steals"`
}

// stepper is what Run's event loop drives: one engine, or a cluster's
// nodes behind its balancer.
type stepper interface {
	// engines lists the engines to calibrate, rewind and meter.
	engines() []*engine.Engine
	// submit admits arrival i, or refuses it with the engine's typed
	// errors.
	submit(i int, spec engine.JobSpec) error
	// StepUntil steps every engine up to virtual time T.
	StepUntil(T int64, each func(engine.StepResult) error) error
}

// engineStepper admits arrival i with affinity for worker i mod W.
type engineStepper struct{ *engine.Engine }

func (e engineStepper) engines() []*engine.Engine { return []*engine.Engine{e.Engine} }

func (e engineStepper) submit(i int, spec engine.JobSpec) error {
	spec.Pref = i % e.Workers()
	return e.Submit(spec)
}

// clusterStepper routes arrival i by its session; an arrival every
// candidate node refuses is shed as on a full engine.
type clusterStepper struct {
	*cluster.Cluster
	sessions []string
}

func (c clusterStepper) engines() []*engine.Engine {
	var out []*engine.Engine
	for _, n := range c.Nodes() {
		out = append(out, n.Engine())
	}
	return out
}

func (c clusterStepper) submit(i int, spec engine.JobSpec) error {
	_, err := c.Submit(c.sessions[i%len(c.sessions)], spec)
	return err
}

// newStepper returns the stepper serving tg; sessions sizes a cluster's
// session population.
func newStepper(tg Target, sessions int) stepper {
	a, ok := tg.(*appTarget)
	if !ok || a.cl == nil {
		return engineStepper{tg.Engine()}
	}
	if sessions <= 0 {
		sessions = defaultSessions
	}
	names := make([]string, sessions)
	for i := range names {
		names[i] = "client-" + strconv.Itoa(i)
	}
	return clusterStepper{a.cl, names}
}

// metrics concatenates the engines' worker metrics.
func metrics(engs []*engine.Engine) []engine.WorkerMetrics {
	var ms []engine.WorkerMetrics
	for _, e := range engs {
		ms = append(ms, e.Metrics()...)
	}
	return ms
}

// Run drives one open-loop measurement: calibrate the target's service
// times, pre-generate the arrival schedule (independent of everything
// the server will do), then admit arrivals in time order while
// virtually-idle workers step queued jobs — a discrete-event
// simulation over the engines' real admission and dequeue machinery,
// behind the cluster's balancer on a cluster target.
func Run(tg Target, spec Spec) (Result, error) {
	s := newStepper(tg, spec.Sessions)
	engs := s.engines()
	W := 0
	for _, e := range engs {
		W += e.Workers()
	}
	if W == 0 {
		return Result{}, errors.New("loadgen: the target has no workers")
	}
	if spec.Requests <= 0 {
		return Result{}, errors.New("loadgen: Spec.Requests must be positive")
	}
	if spec.Warmup <= 0 {
		spec.Warmup = 32
	}
	if spec.OfferedLoad <= 0 {
		spec.OfferedLoad = 0.5
	}
	mix := spec.Mix
	if len(mix) == 0 {
		for _, k := range tg.Kinds() {
			mix = append(mix, MixEntry{Kind: k, Weight: 1})
		}
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	// --- Calibration: observed service time per kind -----------------
	// One throwaway request per kind on every worker primes lazily
	// allocated per-worker state (buffer arenas, handler tasks), then a
	// measured request per kind on the first engine's first worker gives
	// the steady-state service time.
	service := make(map[string]int64, len(mix))
	for _, m := range mix {
		if _, ok := service[m.Kind]; ok {
			continue
		}
		for _, e := range engs {
			for w := 0; w < e.Workers(); w++ {
				if err := calibrate(e, tg, m.Kind, w, nil); err != nil {
					return Result{}, err
				}
			}
		}
		if err := calibrate(engs[0], tg, m.Kind, 0, func(ns int64) { service[m.Kind] = ns }); err != nil {
			return Result{}, err
		}
	}
	var weightSum, svcSum float64
	for _, m := range mix {
		weightSum += m.Weight
		svcSum += m.Weight * float64(service[m.Kind])
	}
	if weightSum <= 0 || svcSum <= 0 {
		return Result{}, errors.New("loadgen: calibration found no service time")
	}
	meanService := svcSum / weightSum

	// Calibration advanced the workers' virtual horizons; rewind them
	// so the measured timeline starts at zero (the learned admission
	// EWMAs survive).
	for _, e := range engs {
		e.ResetVT()
	}

	// --- Arrival schedule (the open-loop guarantee) ------------------
	// Capacity is W workers each retiring one request per meanService;
	// the offered rate is that times OfferedLoad. Every arrival time is
	// fixed here, before the first job runs.
	meanIA := meanService / (spec.OfferedLoad * float64(W))
	total := spec.Warmup + spec.Requests
	times := arrivals(spec.Arrivals, rng, total, meanIA, spec.BurstFactor, spec.Sessions)
	picks := make([]int, total) // mix index per arrival
	for i := range picks {
		picks[i] = pickMix(rng, mix, weightSum)
	}

	// --- Discrete-event loop -----------------------------------------
	st := &runState{
		warmup: spec.Warmup, windowStart: times[spec.Warmup],
		latencies: make([]int64, 0, spec.Requests),
	}
	observe := st.observe
	msBefore := metrics(engs)
	var shed, dlRejected int
	for i := 0; i < total; i++ {
		ta := times[i]
		// Workers that become virtually free before this arrival drain
		// queued work first — the queue an overloaded dequeue policy
		// sees never contains arrivals from the future.
		if err := s.StepUntil(ta, observe); err != nil {
			return Result{}, err
		}
		m := mix[picks[i]]
		var deadline int64
		if m.DeadlineMult > 0 {
			deadline = ta + int64(m.DeadlineMult*float64(service[m.Kind]))
		}
		err := s.submit(i, engine.JobSpec{
			Name:       m.Kind,
			Index:      i,
			Class:      m.Class,
			ArrivalVT:  ta,
			DeadlineVT: deadline,
			Fn:         tg.NewRequest(m.Kind),
		})
		switch {
		case err == nil:
		case errors.Is(err, engine.ErrBackpressure):
			if i >= spec.Warmup {
				shed++
			}
		case errors.Is(err, engine.ErrDeadline):
			if i >= spec.Warmup {
				dlRejected++
			}
		default:
			return Result{}, fmt.Errorf("loadgen: submit %d: %w", i, err)
		}
		// An idle worker serves the new arrival immediately.
		if err := s.StepUntil(ta, observe); err != nil {
			return Result{}, err
		}
	}
	if err := s.StepUntil(math.MaxInt64, observe); err != nil {
		return Result{}, err
	}
	msAfter := metrics(engs)

	// --- Statistics ---------------------------------------------------
	res := Result{
		Target:           tg.Name(),
		Backend:          tg.Backend(),
		Dequeue:          engs[0].DequeueMode().String(),
		Workers:          W,
		OfferedLoad:      spec.OfferedLoad,
		Arrivals:         spec.Arrivals.String(),
		Requests:         spec.Requests,
		Completed:        len(st.latencies),
		Shed:             shed,
		DeadlineRejected: dlRejected,
		MeanServiceNs:    int64(meanService),
		ShedRate:         float64(shed) / float64(spec.Requests),
		Steals:           engine.TotalSteals(msAfter) - engine.TotalSteals(msBefore),
	}
	for i := range msAfter {
		res.DeadlineMissed += msAfter[i].DeadlineMisses - msBefore[i].DeadlineMisses
	}
	if n := len(st.latencies); n > 0 {
		sorted := append([]int64(nil), st.latencies...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var sum int64
		for _, l := range sorted {
			sum += l
		}
		res.MeanNs = sum / int64(n)
		res.P50Ns = percentile(sorted, 0.50)
		res.P90Ns = percentile(sorted, 0.90)
		res.P99Ns = percentile(sorted, 0.99)
		res.P999Ns = percentile(sorted, 0.999)
		res.MaxNs = sorted[n-1]
		if window := st.lastCompletion - st.windowStart; window > 0 {
			res.ThroughputRPS = float64(st.inWindow) / (float64(window) / 1e9)
		}
	}
	return res, nil
}

// runState is the event loop's mutable state.
type runState struct {
	warmup         int
	latencies      []int64
	lastCompletion int64
	// windowStart is the first measured arrival; inWindow counts every
	// completion after it, warm-up included — under overload the
	// warm-up backlog drains inside the throughput window too.
	windowStart int64
	inWindow    int
}

// observe accounts one stepped request (engine.StepUntil's callback).
func (st *runState) observe(r engine.StepResult) error {
	if r.Err != nil {
		return fmt.Errorf("loadgen: request %s#%d failed: %w", r.Name, r.Index, r.Err)
	}
	if r.CompletionVT > st.lastCompletion {
		st.lastCompletion = r.CompletionVT
	}
	if r.CompletionVT > st.windowStart {
		st.inWindow++
	}
	if r.Index >= st.warmup {
		st.latencies = append(st.latencies, r.CompletionVT-r.ArrivalVT)
	}
	return nil
}

// calibrate runs one kind request synchronously on worker w; observe,
// when non-nil, receives the measured service time.
func calibrate(e *engine.Engine, tg Target, kind string, w int, observe func(int64)) error {
	if err := e.Submit(engine.JobSpec{Pref: w, Name: "cal-" + kind, Fn: tg.NewRequest(kind)}); err != nil {
		return fmt.Errorf("loadgen: calibration submit (%s): %w", kind, err)
	}
	r, ok := e.StepWorker(w)
	if !ok {
		return fmt.Errorf("loadgen: calibration step (%s): no work", kind)
	}
	if r.Err != nil {
		return fmt.Errorf("loadgen: calibration request (%s): %w", kind, r.Err)
	}
	if observe != nil {
		observe(r.ServiceNs)
	}
	return nil
}

// pickMix draws a mix entry proportionally to its weight.
func pickMix(rng *rand.Rand, mix []MixEntry, weightSum float64) int {
	x := rng.Float64() * weightSum
	for i, m := range mix {
		x -= m.Weight
		if x < 0 {
			return i
		}
	}
	return len(mix) - 1
}

// percentile returns the q-quantile of sorted samples (nearest-rank).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
