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
	jobs   [NumClasses]lane
	depth  int
	credit [NumClasses]int // SWRR running credit
}

// lane is one class's queue: a ring over a backing array it keeps, so
// in steady state a push reuses the slot an earlier pop vacated. The
// oldest job is at buf[head].
type lane struct {
	buf  []job
	head int
	n    int
}

// push appends j at the back, doubling the array when it is full.
func (l *lane) push(j job) {
	if l.n == len(l.buf) {
		grown := make([]job, max(8, 2*len(l.buf)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.buf[(l.head+i)%len(l.buf)]
		}
		l.buf, l.head = grown, 0
	}
	l.buf[(l.head+l.n)%len(l.buf)] = j
	l.n++
}

// laneKeep is the most slots an emptied lane keeps: a burst's larger
// array goes once the burst drains, so an idle engine holds none.
const laneKeep = 64

// take removes the job in slot i, which must be the front or the back.
// The slot is cleared: the array outlives the pop, and a stale copy
// would keep the job's closure (and the request state it captures)
// reachable.
func (l *lane) take(i int) job {
	j := l.buf[i]
	l.buf[i] = job{}
	l.n--
	if l.n == 0 && len(l.buf) > laneKeep {
		l.buf, l.head = nil, 0
	}
	return j
}

// popFront removes the oldest job.
func (l *lane) popFront() job {
	i := l.head
	l.head = (l.head + 1) % len(l.buf)
	return l.take(i)
}

// popBack removes the newest job.
func (l *lane) popBack() job { return l.take((l.head + l.n - 1) % len(l.buf)) }

// push appends j to its class's lane.
func (q *classQueue) push(j job) {
	q.jobs[j.class].push(j)
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
		if q.jobs[c].n == 0 {
			continue
		}
		q.credit[c] += weights[c]
		total += weights[c]
		if best < 0 || q.credit[c] > q.credit[best] {
			best = c
		}
	}
	q.credit[best] -= total
	var j job
	if mode == LIFOUnderOverload && q.depth > lifoThreshold {
		j = q.jobs[best].popBack()
	} else {
		j = q.jobs[best].popFront()
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
		if q.jobs[c].n == 0 {
			continue
		}
		q.depth--
		return q.jobs[c].popFront(), true
	}
	return job{}, false
}
