package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/litterbox-project/enclosure/internal/simnet"
)

// The ownership rule (DESIGN §18). One user-level scheduler picks which
// of a program's goroutines runs next on the virtual CPU they share
// (§4.2, §5.1): the program's run queue, one run token and two FIFO
// lists of tasks waiting for it. The token makes the program's clocks,
// counters, per-task state and hand-offs plain data.
//
// A simulated goroutine (a Task.Go child or a Sched thread) is a
// coroutine that holds the token for its whole turn: until it blocks or
// exits, and yields to the host goroutine that resumed it, the driver.
// A host-driven task (an engine job, Program.Run's root task, host
// code) drives when it blocks, or leaves an entry point with tasks
// ready, resuming them until its own wait is over. It parks only when
// nothing is ready; a host goroutine that then wakes a task from
// outside the program drives it instead. A host goroutine's wait gets
// the token over a one-slot channel.
//
// Code sets the order, never the host: Task.Go, a Handoff send, receive
// or close, a finishing child's joiners, Task.Yield and a network call
// ready the tasks they wake at the tail of the holder's list; a wake
// from outside and a host-driven task's entry point wait at the tail of
// the second. Each turn goes to the head of the first list, else of the
// second. A task waits only at a blocking point: Handle.Join,
// Task.Yield, a Handoff that must block, and the kernel's network waits
// (kernel.Kernel.SetScheduler). A raw channel or host lock would block
// the driver and deadlock the program.

// runq is a program's run token, the two FIFO lists of waits for it,
// and its scheduler as the kernel's network waits see it
// (simnet.Sched). Taking a free token and releasing one nobody waits
// for are one atomic operation each.
type runq struct {
	// next holds the waits the token's holder readied, in the order it
	// readied them; they get the token before queue. Only the holder
	// touches next, cur, and free, which keeps waiters for reuse so
	// that a blocking wait allocates nothing.
	next waitq
	free *waiter
	// cur is the coroutine whose turn it is, nil while a host goroutine
	// holds the token; turns counts the turns drivers have resumed.
	cur   *Task
	turns uint32
	// queue holds the waits that arrived without the token: a wake
	// from outside the program, a host-driven task's entry point.
	state int32      // tokenFree, tokenHeld or tokenQueued, read and written atomically
	mu    sync.Mutex // guards queue and every move to or from tokenQueued
	queue waitq
}

// yieldEvery is how many coroutine turns a program's drivers resume
// between two yields of their host thread to the Go scheduler.
const yieldEvery = 64

const (
	tokenFree int32 = iota
	tokenHeld
	tokenQueued // held, with queue non-empty
)

// waiter is one blocked wait for the token, on one list at a time: a
// hand-off's, a handle's or a simnet stream's, then the run queue.
type waiter struct {
	q    *runq
	t    *Task         // the coroutine to resume, nil for a host goroutine's wait
	wake chan struct{} // a host goroutine's wait's one slot
	next *waiter
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

// Lock takes the token for host code, waiting at the tail of queue
// while another task holds it. Its waiter is new: the caller holds no
// token to take one from free.
func (q *runq) Lock() {
	if atomic.CompareAndSwapInt32(&q.state, tokenFree, tokenHeld) {
		return
	}
	w := &waiter{q: q, wake: make(chan struct{}, 1)}
	if !q.enqueue(w) {
		<-w.wake
	}
}

// enqueue queues w at the tail of queue for a caller that does not
// hold the token, or takes the free token for w and reports true.
func (q *runq) enqueue(w *waiter) bool {
	if atomic.CompareAndSwapInt32(&q.state, tokenFree, tokenHeld) {
		return true
	}
	q.mu.Lock()
	for !atomic.CompareAndSwapInt32(&q.state, tokenFree, tokenHeld) {
		if atomic.LoadInt32(&q.state) == tokenQueued || atomic.CompareAndSwapInt32(&q.state, tokenHeld, tokenQueued) {
			q.queue.push(w)
			q.mu.Unlock()
			return false
		}
	}
	q.mu.Unlock()
	return true
}

// Unlock ends a host goroutine's hold on the token: it drives the ready
// tasks, then frees the token or hands it to a host goroutine's wait.
// The drive is out of line, so that the free path inlines.
func (q *runq) Unlock() {
	if q.next.head != nil || !atomic.CompareAndSwapInt32(&q.state, tokenHeld, tokenFree) {
		q.drive(nil)
	}
}

// pop removes the head of next, else of queue, for the holder. With
// both empty it frees the token and returns nil.
func (q *runq) pop() *waiter {
	if w := q.next.pop(); w != nil {
		return w
	}
	if atomic.CompareAndSwapInt32(&q.state, tokenHeld, tokenFree) {
		return nil
	}
	q.mu.Lock()
	w := q.queue.pop()
	if q.queue.head == nil {
		atomic.StoreInt32(&q.state, tokenHeld) // by w now
	}
	q.mu.Unlock()
	return w
}

// drive runs the program on the calling host goroutine, which holds the
// token: it resumes ready coroutines in order until own (nil: none) is
// handed the token, and returns holding it then. When a host
// goroutine's wait or nothing is ready, it hands the token on or frees
// it, and waits on own's channel.
func (q *runq) drive(own *waiter) {
	for {
		w := q.pop()
		switch {
		case w == nil:
		case w == own:
			q.put(own)
			return
		case w.t != nil:
			q.resume(w)
			continue
		default:
			w.wake <- struct{}{} // one slot and one wake per wait: never blocks
		}
		if own != nil {
			<-own.wake
			q.put(own)
		}
		return
	}
}

// resume runs the turn w was handed on its coroutine. A coroutine
// switch never enters the Go scheduler, so on one host thread the
// collector's background mark worker would get no turn while a driver
// runs: assists then do the marking, and a cycle's mark phase (write
// barriers on) lasted 1.4–4.8 ms instead of 0.3 ms in a page-request
// loop at GOMAXPROCS(1). Every yieldEvery turns the driver yields its
// thread.
func (q *runq) resume(w *waiter) {
	t := w.t
	q.put(w)
	if q.turns++; q.turns%yieldEvery == 0 {
		runtime.Gosched()
	}
	q.cur = t
	t.resume()
	q.cur = nil
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

// waiter returns a waiter whose wake resumes coroutine t, or, with t
// nil, hands the token to a host goroutine. The caller holds the token.
func (q *runq) waiter(t *Task) *waiter {
	w := q.free
	if w == nil {
		w = &waiter{q: q}
	} else {
		q.free, w.next = w.next, nil
	}
	w.t = t
	if t == nil && w.wake == nil {
		w.wake = make(chan struct{}, 1)
	}
	return w
}

// put keeps w for reuse. The caller holds the token.
func (q *runq) put(w *waiter) { w.t, w.next, q.free = nil, q.free, w }

// ready queues w at the tail of next. The caller holds the token.
func (q *runq) ready(w *waiter) { q.next.push(w) }

// wait ends the caller's turn for a wait on w, which the caller has put
// where its wake will come from, and returns on its next turn: a
// coroutine yields to its driver, and a host goroutine drives.
func (q *runq) wait(w *waiter) {
	if t := w.t; t != nil {
		t.yield(struct{}{})
	} else {
		q.drive(w)
	}
}

// block is wait at a core blocking point. A Sched thread then resumes
// on the scheduler CPU, faulting if the switch into its environment
// fails.
func (q *runq) block(w *waiter) {
	t := w.t
	q.wait(w)
	if t != nil && t.sched != nil {
		if err := t.sched.resume(t); err != nil {
			t.fail(err)
		}
	}
}

// Waiter returns a wait for the task whose turn it is (simnet.Sched).
func (q *runq) Waiter() simnet.Waiter { return q.waiter(q.cur) }

// Block is wait for a kernel network wait (simnet.Sched). A Sched
// thread then resumes on the scheduler CPU, where its system call goes
// on; a failed switch has aborted the thread's domain already, and its
// next entry point faults.
func (q *runq) Block(sw simnet.Waiter) {
	t := q.cur
	q.wait(sw.(*waiter))
	if t != nil && t.sched != nil {
		_ = t.sched.resume(t)
		t.cpu.Pkg = t.CurrentPkg()
	}
}

// Wake readies w for the token's holder (simnet.Sched): at the tail of
// next when it waits in this program, from outside it otherwise.
func (q *runq) Wake(sw simnet.Waiter) {
	if w, ok := sw.(*waiter); ok && w.q == q {
		q.ready(w)
		return
	}
	sw.Wake()
}

// Wake readies w from outside its program (simnet.Waiter): at the tail
// of queue while the token is held, else at once, the caller driving
// the program until its turn is over.
func (w *waiter) Wake() {
	if q := w.q; q.enqueue(w) {
		q.ready(w)
		q.drive(nil)
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
		w = q.waiter(q.cur)
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
		w := q.waiter(q.cur)
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
