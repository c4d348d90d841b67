package core

import (
	"sync"
	"sync/atomic"
)

// The ownership rule (DESIGN §18). One user-level scheduler picks which
// of a program's goroutines runs next on the virtual CPU they share
// (§4.2, §5.1): the program's run queue, one run token and two FIFO
// lists of tasks waiting for it. The token makes the program's clocks,
// counters, per-task state and hand-offs plain data.
//
// A simulated goroutine (a Task.Go child or a Sched thread) holds the
// token for its whole turn, until it blocks or exits; a host-driven task
// (an engine job, Program.Run's root task, a test's bare goroutine) and
// host code take it per core entry point. Code sets the order of the
// tasks that wait for a sibling, never the host: Task.Go queues the
// child, a Handoff send, receive or close queues the task it wakes, a
// finishing child queues its joiners, and Task.Yield re-queues a Sched
// thread, each at the tail of the holder's list. A kernel network wait re-enters
// at the tail of the second list, behind host-driven tasks' entry
// points. Every release hands the token to the head of the first list,
// else of the second, and a Sched thread that gets it back resumes on
// its CPU.
//
// A task waits for a sibling only at a blocking point, which releases
// the token for the wait: Handle.Join, Task.Yield, a Handoff that must
// block, and the kernel's network waits (kernel.Kernel.SetRunToken). A
// raw channel or host lock would keep it, and deadlock the program.

// runq is a program's run token and the two FIFO lists of waits for
// it. Taking a free token and releasing one nobody waits for are one
// atomic operation each.
type runq struct {
	// next holds the waits the token's holder readied, in the order it
	// readied them; they get the token before queue. Only the holder
	// touches next, and free, which keeps waiters for reuse so that a
	// blocking wait allocates nothing.
	next waitq
	free *waiter
	// queue holds the waits that arrived without the token: a kernel
	// network wait retaking it, a host-driven task's entry point.
	state int32      // tokenFree, tokenHeld or tokenQueued, read and written atomically
	mu    sync.Mutex // guards queue and every move to or from tokenQueued
	queue waitq
}

const (
	tokenFree int32 = iota
	tokenHeld
	tokenQueued // held, with queue non-empty
)

// waiter is one blocked wait for the token, on one list at a time: a
// hand-off's or a handle's, then the run queue.
type waiter struct {
	wake chan struct{} // one slot
	next *waiter
	t    *Task // the waiting task, nil for host code
}

// waitq is a FIFO list of waiters linked through next; tail is stale
// once head is nil.
type waitq struct{ head, tail *waiter }

func (l *waitq) push(w *waiter) {
	if l.head == nil {
		l.head = w
	} else {
		l.tail.next = w
	}
	l.tail = w
}

func (l *waitq) pop() *waiter {
	w := l.head
	if w != nil {
		l.head, w.next = w.next, nil
	}
	return w
}

// Lock takes the token, waiting at the tail of queue while another
// task holds it. With Unlock it is the sync.Locker the kernel releases
// for a network wait. Its waiter is new: the caller holds no token to
// take one from free.
func (q *runq) Lock() {
	if atomic.CompareAndSwapInt32(&q.state, tokenFree, tokenHeld) {
		return
	}
	w := &waiter{wake: make(chan struct{}, 1)}
	q.mu.Lock()
	for !atomic.CompareAndSwapInt32(&q.state, tokenFree, tokenHeld) {
		if atomic.LoadInt32(&q.state) == tokenQueued || atomic.CompareAndSwapInt32(&q.state, tokenHeld, tokenQueued) {
			q.queue.push(w)
			q.mu.Unlock()
			<-w.wake
			return
		}
	}
	q.mu.Unlock()
}

// Unlock hands the token to the head of next, else of queue, or frees
// it. The hand-off is out of line, so that the free path inlines.
func (q *runq) Unlock() {
	if q.next.head != nil || !atomic.CompareAndSwapInt32(&q.state, tokenHeld, tokenFree) {
		q.handOff()
	}
}

func (q *runq) handOff() {
	w := q.next.pop()
	if w == nil {
		q.mu.Lock()
		w = q.queue.pop()
		if q.queue.head == nil {
			atomic.StoreInt32(&q.state, tokenHeld) // by w now
		}
		q.mu.Unlock()
	}
	w.wake <- struct{}{} // one slot and one wake per wait: never blocks
}

// enter takes the token for t (nil for host code) unless t holds it
// already, and reports whether it took it.
func (q *runq) enter(t *Task) bool {
	if t != nil && t.held {
		return false
	}
	q.Lock()
	if t != nil {
		t.held = true
	}
	return true
}

// leave releases the token if enter took it.
func (q *runq) leave(t *Task, took bool) {
	if took {
		if t != nil {
			t.held = false
		}
		q.Unlock()
	}
}

// waiter returns a waiter for t's next wait (nil: host code's). The
// caller holds the token.
func (q *runq) waiter(t *Task) *waiter {
	w := q.free
	if w == nil {
		w = &waiter{wake: make(chan struct{}, 1)}
	} else {
		q.free, w.next = w.next, nil
	}
	w.t = t
	return w
}

// ready queues w at the tail of next. The caller holds the token.
func (q *runq) ready(w *waiter) { q.next.push(w) }

// block releases the token for a wait on w, which the caller has put
// where its wake will come from, and returns holding the token again.
func (q *runq) block(w *waiter) {
	q.Unlock()
	q.sleep(w)
}

// sleep blocks until w is handed the token and keeps w for reuse. A
// Sched thread then resumes on the scheduler CPU, faulting if the
// switch into its environment fails.
func (q *runq) sleep(w *waiter) {
	<-w.wake
	t := w.t
	w.t, w.next, q.free = nil, q.free, w
	if t != nil && t.sched != nil {
		if err := t.sched.resume(t); err != nil {
			t.fail(err)
		}
	}
}

// enter takes the program's run token for a core entry point, unless
// the task holds it already, and reports whether it took it. Every
// entry point starts with
//
//	defer t.leave(t.enter())
//
// so a fault panic unwinding the entry releases the token too.
func (t *Task) enter() bool {
	if t.held {
		return false
	}
	t.prog.q.Lock()
	t.held = true
	return true
}

// leave releases the token if enter took it.
func (t *Task) leave(took bool) {
	if took {
		t.release()
	}
}

// release releases the token that enter took.
func (t *Task) release() {
	t.held = false
	t.prog.q.Unlock()
}

// Handoff passes values between the simulated goroutines of one
// program: a request from an enclosed server to its trusted handler,
// and the reply back. Besides Handle.Join it is the one way code inside
// an entry point may wait for a sibling. The program's run token guards
// it: the first task to use it binds it to its program, and host code
// (a nil task) waits for that binding before it takes the token. Send
// and Recv block only when they must, and neither allocates once the
// ring holds the values in flight.
type Handoff[T any] struct {
	q            atomic.Pointer[runq] // the run queue of the program whose tasks use it
	bound        chan struct{}        // closed once q is set
	vals         []T                  // ring of values sent and not yet received
	r, n         int                  // the ring's head and length
	cap          int                  // values Send may leave before their Recv
	reserved     int                  // values promised to woken receivers that have not run yet
	recvq, sendq waitq
	closed       bool
}

// NewHandoff returns a hand-off that buffers up to n values; with n = 0
// every Send waits for its Recv.
func NewHandoff[T any](n int) *Handoff[T] {
	return &Handoff[T]{bound: make(chan struct{}), vals: make([]T, n), cap: n}
}

// enter takes the run token that guards h for t (nil for host code)
// unless t holds it already, and returns h's run queue and whether it
// took the token.
func (h *Handoff[T]) enter(t *Task) (*runq, bool) {
	if t == nil {
		<-h.bound
		q := h.q.Load()
		return q, q.enter(nil)
	}
	q := &t.prog.q
	if h.q.Load() == nil && h.q.CompareAndSwap(nil, q) {
		close(h.bound)
	}
	return q, q.enter(t)
}

// Send delivers v on behalf of t (nil for host code), waiting while the
// buffer is full; a waiting receiver takes v at once. Sending after
// Close panics, as on a channel.
func (h *Handoff[T]) Send(t *Task, v T) {
	q, took := h.enter(t)
	defer q.leave(t, took)
	if h.closed {
		panic("core: send on closed hand-off")
	}
	h.push(v)
	if w := h.recvq.pop(); w != nil {
		h.reserved++
		q.ready(w)
	} else if h.n-h.reserved > h.cap {
		w = q.waiter(t)
		h.sendq.push(w)
		q.block(w) // until a Recv makes room for v
	}
}

// Recv returns the next value on behalf of t (nil for host code),
// waiting until one arrives. ok is false once the hand-off is closed
// and drained.
func (h *Handoff[T]) Recv(t *Task) (v T, ok bool) {
	q, took := h.enter(t)
	defer q.leave(t, took)
	if h.n == h.reserved {
		if h.closed {
			return v, false
		}
		w := q.waiter(t)
		h.recvq.push(w)
		q.block(w)
		if h.reserved == 0 {
			return v, false // woken by Close
		}
		h.reserved--
	} else if w := h.sendq.pop(); w != nil {
		q.ready(w) // the oldest blocked Send's value now fits
	}
	v = h.vals[h.r]
	h.vals[h.r] = *new(T)
	h.r, h.n = (h.r+1)%len(h.vals), h.n-1
	return v, true
}

// Close ends the stream on behalf of t (nil for host code): receivers
// drain what was sent, then see ok = false. Closing twice panics, as on
// a channel.
func (h *Handoff[T]) Close(t *Task) {
	q, took := h.enter(t)
	defer q.leave(t, took)
	if h.closed {
		panic("core: close of closed hand-off")
	}
	h.closed = true
	for w := h.recvq.pop(); w != nil; w = h.recvq.pop() {
		q.ready(w)
	}
}

// push appends v to the ring, doubling it when full.
func (h *Handoff[T]) push(v T) {
	if h.n == len(h.vals) {
		grown := make([]T, 2*h.n+1)
		k := copy(grown, h.vals[h.r:])
		copy(grown[k:], h.vals[:h.r])
		h.vals, h.r = grown, 0
	}
	h.vals[(h.r+h.n)%len(h.vals)] = v
	h.n++
}
