package core

// The ownership rule. The paper's goroutines share the virtual CPU they
// run on (§4.2, §5.1), so the simulated goroutines of one program take
// turns: each holds its program's run token (Program.run) while it is
// inside a core entry point that runs simulated code, and host code
// between those calls holds nothing. The token is what makes the
// program's clocks, hardware counters and per-task state plain data.
//
// A task waits for a sibling only at a blocking point, and every
// blocking point releases the token for the length of the wait:
// Handle.Join, Task.Yield (and the Sched resume behind it), a Handoff
// that must block, and the kernel's waits on the network (an empty
// accept backlog, an empty socket, a full send buffer; see
// kernel.Kernel.SetRunToken). App code inside an entry point that
// waited on a raw channel instead would keep the token, and the sibling
// it waits for could never run.

// take takes the program's run token for one core entry point. Only
// the outermost entry on a task takes it; the entry releases it with a
// deferred disown, so a fault panic unwinding the entry releases it
// too, and a nested entry costs one test:
//
//	if !t.held {
//		t.take()
//		defer t.disown()
//	}
func (t *Task) take() {
	t.prog.run.Lock()
	t.held = true
}

// disown releases the token taken by take.
func (t *Task) disown() {
	t.held = false
	t.prog.run.Unlock()
}

// park releases the run token the task holds, if any, for a wait on a
// sibling, and reports whether it did; unpark takes it back. A nil task
// is host code, which holds nothing.
func (t *Task) park() bool {
	if t == nil || !t.held {
		return false
	}
	t.disown()
	return true
}

// unpark retakes the token released by park.
func (t *Task) unpark(held bool) {
	if held {
		t.take()
	}
}

// Handoff passes values between the simulated goroutines of one
// program: a request from an enclosed server to its trusted handler,
// and the reply back. Besides Handle.Join it is the one way code inside
// an entry point may wait for a sibling. Send and Recv release the
// caller's run token only when they must block, so a hand-off that
// finds room or a value costs one channel operation and allocates
// nothing.
type Handoff[T any] struct{ ch chan T }

// NewHandoff returns a hand-off that buffers up to n values; with n = 0
// every Send waits for its Recv.
func NewHandoff[T any](n int) *Handoff[T] { return &Handoff[T]{ch: make(chan T, n)} }

// Send delivers v on behalf of t, waiting while the buffer is full. t
// is the calling task, or nil for host code.
func (h *Handoff[T]) Send(t *Task, v T) {
	select {
	case h.ch <- v:
		return
	default:
	}
	defer t.unpark(t.park())
	h.ch <- v
}

// Recv returns the next value on behalf of t (nil for host code),
// waiting until one arrives. ok is false once the hand-off is closed
// and drained.
func (h *Handoff[T]) Recv(t *Task) (v T, ok bool) {
	select {
	case v, ok = <-h.ch:
		return v, ok
	default:
	}
	defer t.unpark(t.park())
	v, ok = <-h.ch
	return v, ok
}

// Close ends the stream of values: receivers drain what was sent, then
// see ok = false. Sending after Close panics, as on a channel.
func (h *Handoff[T]) Close() { close(h.ch) }
