package engine

// NumClasses is the number of per-enclosure QoS classes a run queue
// distinguishes. Class 0 is the highest priority (the default for every
// legacy submission path); class NumClasses-1 the lowest. Weighted
// dequeue means a low class is de-prioritised, never starved — and,
// symmetrically, a flood of low-priority work cannot starve class 0.
const NumClasses = 4

// DequeueMode selects the order a worker drains its run queue in.
type DequeueMode int

const (
	// FIFO serves oldest-first — the fairness order, and the default.
	FIFO DequeueMode = iota

	// LIFOUnderOverload serves oldest-first while the queue is shallow
	// and switches to newest-first once its depth crosses the engine's
	// LIFO threshold. Under sustained overload FIFO makes *every*
	// request wait the full queue; LIFO serves fresh arrivals while
	// they can still meet a latency target and lets the already-late
	// tail absorb the delay — the classic p50-under-overload trade
	// (newest-first improves the median, the abandoned tail carries
	// p99.9).
	LIFOUnderOverload
)

// String names the mode for tables and JSON.
func (m DequeueMode) String() string {
	if m == LIFOUnderOverload {
		return "lifo"
	}
	return "fifo"
}

// defaultClassWeights is the smooth-weighted-round-robin share of each
// QoS class when Opts.ClassWeights is unset: class 0 gets 8 of every 15
// dequeues under full contention, class 3 gets 1.
var defaultClassWeights = [NumClasses]int{8, 4, 2, 1}

// classQueue is one worker's run queue, segregated by QoS class.
// Dequeue interleaves the non-empty classes with smooth weighted
// round-robin, so relative progress follows the class weights no matter
// how lopsided the backlog is. All access is guarded by Engine.mu.
type classQueue struct {
	jobs   [NumClasses][]job
	depth  int
	credit [NumClasses]int // SWRR running credit
}

// push appends j to its class's lane.
func (q *classQueue) push(j job) {
	q.jobs[j.class] = append(q.jobs[j.class], j)
	q.depth++
}

// len returns the total queued jobs across classes.
func (q *classQueue) len() int { return q.depth }

// pop removes the next job per the dequeue policy: smooth weighted
// round-robin across non-empty classes, then FIFO within the chosen
// class — or LIFO once the total depth exceeds lifoThreshold in
// LIFOUnderOverload mode.
func (q *classQueue) pop(weights [NumClasses]int, mode DequeueMode, lifoThreshold int) (job, bool) {
	if q.depth == 0 {
		return job{}, false
	}
	// Smooth WRR: every non-empty class earns its weight, the richest
	// class is served and pays back the total stake. Ties resolve to
	// the higher-priority (lower-index) class, deterministically.
	total, best := 0, -1
	for c := range q.jobs {
		if len(q.jobs[c]) == 0 {
			continue
		}
		q.credit[c] += weights[c]
		total += weights[c]
		if best < 0 || q.credit[c] > q.credit[best] {
			best = c
		}
	}
	q.credit[best] -= total
	lane := q.jobs[best]
	var j job
	// Clear the vacated slot before reslicing: the backing array
	// outlives the pop, and a stale copy would keep the job's closure
	// (and the request state it captures) reachable.
	if mode == LIFOUnderOverload && q.depth > lifoThreshold {
		j = lane[len(lane)-1]
		lane[len(lane)-1] = job{}
		q.jobs[best] = lane[:len(lane)-1]
	} else {
		j = lane[0]
		lane[0] = job{}
		q.jobs[best] = lane[1:]
	}
	q.depth--
	return j, true
}

// steal removes the oldest job of the highest-priority non-empty class
// — thieves take from the front (the fairness order) so a steal never
// jumps a victim's fresh work ahead of its backlog.
func (q *classQueue) steal() (job, bool) {
	if q.depth == 0 {
		return job{}, false
	}
	for c := range q.jobs {
		if len(q.jobs[c]) == 0 {
			continue
		}
		j := q.jobs[c][0]
		q.jobs[c][0] = job{} // as in pop
		q.jobs[c] = q.jobs[c][1:]
		q.depth--
		return j, true
	}
	return job{}, false
}
