// Package loadgen is the open-loop traffic generator: it models a user
// population firing requests at the enclosed applications on the
// virtual clock, independent of how fast the server answers. Arrival
// times are drawn from the configured process (Poisson, bursty MMPP,
// or session think-time renewal) *before* the run starts, and each
// request's latency is measured from its scheduled arrival to its
// virtual completion — so a slow server cannot delay the arrivals that
// would have exposed it, the coordinated-omission error closed-loop
// generators bake into their percentiles.
//
// The generator drives an engine as a discrete-event simulation
// (engine.StepUntil): arrivals are admitted in time order
// through the real admission path (QoS class, deadline feasibility,
// backpressure shedding), and virtually-idle workers step queued jobs
// through the real dequeue policy (weighted classes, FIFO or
// LIFO-under-overload, work stealing). Determinism is by construction:
// one seed, one serial event loop, one virtual cost model.
package loadgen

import (
	"math"
	"math/rand"
	"sort"
)

// ArrivalProcess selects how the user population spaces its requests.
type ArrivalProcess int

const (
	// Poisson models a large population of independent users: i.i.d.
	// exponential interarrivals at the offered rate.
	Poisson ArrivalProcess = iota

	// MMPP is a two-state Markov-modulated Poisson process: a bursty
	// population that alternates between a quiet state and a high-rate
	// burst state (rate = BurstFactor × the offered average), with the
	// state mix chosen so the time-averaged rate still equals the
	// offered rate. Bursts are what separate a p99.9 from a p50.
	MMPP

	// SessionThink models a fixed population of sessions, each an
	// independent renewal process: fire a request, think for an
	// exponential time, repeat. Think times are drawn independently of
	// completions — the sessions do not wait for answers — so the
	// process stays open-loop.
	SessionThink
)

// String names the process for tables and JSON.
func (p ArrivalProcess) String() string {
	switch p {
	case MMPP:
		return "mmpp"
	case SessionThink:
		return "sessions"
	default:
		return "poisson"
	}
}

// expNs draws an exponential interarrival with the given mean, floored
// at 1ns so the schedule is strictly increasing.
func expNs(rng *rand.Rand, meanNs float64) int64 {
	d := int64(math.Round(rng.ExpFloat64() * meanNs))
	if d < 1 {
		d = 1
	}
	return d
}

// burstFraction is the long-run fraction of time an MMPP population
// spends in its burst state.
const burstFraction = 0.1

// burstLength is the expected number of arrivals per burst sojourn.
const burstLength = 20

// defaultSessions is the session population when Spec.Sessions is zero.
const defaultSessions = 16

// arrivals returns n strictly increasing arrival times (virtual ns
// from the start of the run) with time-averaged mean interarrival
// meanIANs under the given process. burstFactor and sessions shape MMPP
// and SessionThink (zero: their defaults).
func arrivals(p ArrivalProcess, rng *rand.Rand, n int, meanIANs float64, burstFactor float64, sessions int) []int64 {
	switch p {
	case MMPP:
		return genMMPP(rng, n, meanIANs, burstFactor)
	case SessionThink:
		return genSessions(rng, n, meanIANs, sessions)
	default:
		return genPoisson(rng, n, meanIANs)
	}
}

func genPoisson(rng *rand.Rand, n int, meanIANs float64) []int64 {
	out := make([]int64, n)
	var t int64
	for i := range out {
		t += expNs(rng, meanIANs)
		out[i] = t
	}
	return out
}

// genMMPP alternates exponential sojourns in a high-rate burst state
// and a low-rate quiet state. With rate_high = burstFactor/meanIA and
// the burst state occupied burstFraction of the time, the quiet rate
// is solved so the time average equals 1/meanIA; burstFactor is capped
// just below 1/burstFraction to keep the quiet rate positive.
func genMMPP(rng *rand.Rand, n int, meanIANs float64, burstFactor float64) []int64 {
	if burstFactor <= 1 {
		burstFactor = 4
	}
	if max := 1/burstFraction - 0.5; burstFactor > max {
		burstFactor = max
	}
	rate := 1 / meanIANs
	rateHigh := burstFactor * rate
	rateLow := (rate - burstFraction*rateHigh) / (1 - burstFraction)
	meanHighNs := burstLength / rateHigh // ~burstLength arrivals per burst
	meanLowNs := meanHighNs * (1 - burstFraction) / burstFraction

	out := make([]int64, 0, n)
	var t int64
	high := false
	stateEnd := t + expNs(rng, meanLowNs)
	for len(out) < n {
		mean := 1 / rateLow
		if high {
			mean = 1 / rateHigh
		}
		next := t + expNs(rng, mean)
		if next > stateEnd {
			// Memorylessness: restart the draw from the state boundary
			// at the new state's rate.
			t = stateEnd
			high = !high
			sojourn := meanLowNs
			if high {
				sojourn = meanHighNs
			}
			stateEnd = t + expNs(rng, sojourn)
			continue
		}
		t = next
		out = append(out, t)
	}
	return out
}

// genSessions merges `sessions` independent renewal streams, each
// firing then thinking exponentially with mean sessions×meanIA so the
// aggregate rate is 1/meanIA. Session start offsets are staggered over
// one think time to avoid a thundering herd at t=0.
func genSessions(rng *rand.Rand, n int, meanIANs float64, sessions int) []int64 {
	if sessions <= 0 {
		sessions = defaultSessions
	}
	if sessions > n {
		sessions = n
	}
	thinkNs := meanIANs * float64(sessions)
	out := make([]int64, 0, n+sessions)
	per := (n + sessions - 1) / sessions
	for s := 0; s < sessions; s++ {
		t := expNs(rng, thinkNs) // staggered first request
		for i := 0; i < per; i++ {
			out = append(out, t)
			t += expNs(rng, thinkNs)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	out = out[:n]
	// Break exact ties so the schedule is strictly increasing — event
	// order must be total for determinism.
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			out[i] = out[i-1] + 1
		}
	}
	return out
}
