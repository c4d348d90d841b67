//go:build go1.23

package simnet

import (
	"iter"
	"sync"
)

// Go runs body as a goroutine of a host process (simdb's connection
// handlers) that the network drives: a coroutine that runs, until it
// waits through s, on whichever goroutine wakes it, so a query a task
// writes is answered before its write returns, on the task's own host
// goroutine. Body's first turn runs before Go returns. iter.Pull is Go
// 1.23's; the build constraint lets this file use it while the
// module's go line stays at 1.22.
func Go(body func(s Sched)) {
	p := &proc{}
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		body(p)
	})
	(*procWake)(p).Wake()
}

// proc is one Go coroutine and its Sched; state is under mu.
type proc struct {
	mu     sync.Mutex
	state  int8
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
}

const (
	procIdle int8 = iota
	procRunning
	procWoken // running, and woken again since its last wait began
)

func (p *proc) Waiter() Waiter { return (*procWake)(p) }
func (p *proc) Block(Waiter)   { p.yield(struct{}{}) }
func (p *proc) Wake(w Waiter)  { w.Wake() }

// procWake is a proc's one wait.
type procWake proc

// Wake runs the proc on the calling goroutine until it waits with no
// wake pending, unless another goroutine runs it, which then does.
func (w *procWake) Wake() {
	p := (*proc)(w)
	p.mu.Lock()
	if p.state != procIdle {
		p.state = procWoken
		p.mu.Unlock()
		return
	}
	for {
		p.state = procRunning
		p.mu.Unlock()
		p.resume()
		p.mu.Lock()
		if p.state != procWoken {
			p.state = procIdle
			p.mu.Unlock()
			return
		}
	}
}
