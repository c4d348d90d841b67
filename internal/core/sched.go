package core

import (
	"fmt"
	"sync"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/litterbox"
)

// Sched is a cooperative user-level scheduler multiplexing simulated
// goroutines over ONE virtual CPU — the paper's Go-runtime scenario
// (§4.2, §5.1): "Execute enables run-time scheduling of user-level
// threads by providing a switch mechanism between two unrelated
// protection environments. The language's scheduler calls Execute to
// transition from one user thread execution environment to another."
//
// Threads yield explicitly (Task.Yield); on every resume of a thread
// whose current environment differs from the CPU's, the scheduler
// invokes LitterBox's Execute, so preempted enclosures always resume
// under their own restrictions.
type Sched struct {
	prog *Program
	cpu  *hw.CPU

	mu      sync.Mutex
	threads []*SchedThread
	rr      int // round-robin cursor

	curEnv  *litterbox.Env
	resumes int64 // Execute-mediated environment installs
	events  chan yieldEvent
}

// SchedThread is one user-level thread managed by a Sched.
type SchedThread struct {
	name   string
	task   *Task
	body   func(*Task) error
	resume chan struct{}
	done   bool
	err    error
}

// Err returns the thread's result after Sched.Run.
func (st *SchedThread) Err() error { return st.err }

// Name returns the thread's name.
func (st *SchedThread) Name() string { return st.name }

// NewScheduler returns a scheduler with its own single virtual CPU,
// initially in the trusted environment.
func (p *Program) NewScheduler() (*Sched, error) {
	s := &Sched{prog: p, cpu: p.newCPU(), curEnv: p.lb.Trusted()}
	p.run.Lock()
	defer p.run.Unlock()
	if err := p.lb.InstallEnv(s.cpu, s.curEnv); err != nil {
		return nil, err
	}
	return s, nil
}

// Resumes reports how many environment-changing resumes Execute
// performed (for the scheduling ablation).
func (s *Sched) Resumes() int64 { return s.resumes }

// Spawn registers a user-level thread starting in the trusted
// environment (entering enclosures inside the body restricts it, and
// the restriction is preserved across yields).
func (s *Sched) Spawn(name string, body func(*Task) error) *SchedThread {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := newTask(s.prog, -len(s.threads)-1, name, s.prog.lb.Trusted(), "main")
	t.cpu = s.cpu // all threads share the scheduler's CPU
	t.sched = s
	st := &SchedThread{name: name, task: t, body: body, resume: make(chan struct{})}
	s.threads = append(s.threads, st)
	return st
}

// yieldEvent is what a running thread reports back to the scheduler.
type yieldEvent struct {
	st       *SchedThread
	finished bool
}

// Run drives all threads round-robin until every one finishes. It is
// the scheduler loop: pick the next runnable thread, Execute into its
// environment if it differs from the CPU's, hand over the baton, wait
// for the yield.
func (s *Sched) Run() error {
	s.events = make(chan yieldEvent)
	events := s.events
	started := make(map[*SchedThread]bool)

	for {
		st := s.next()
		if st == nil {
			break // all done
		}
		// Resume in the thread's current execution environment.
		if st.task.env != s.curEnv {
			if err := s.execute(st.task.env); err != nil {
				return err
			}
			s.resumes++
		}
		if !started[st] {
			started[st] = true
			go func(st *SchedThread) {
				defer func() {
					if r := recover(); r != nil {
						if f, ok := r.(*litterbox.Fault); ok {
							st.err = f
							events <- yieldEvent{st: st, finished: true}
							return
						}
						panic(r)
					}
				}()
				<-st.resume
				st.err = st.body(st.task)
				events <- yieldEvent{st: st, finished: true}
			}(st)
		}
		st.resume <- struct{}{}
		ev := <-events
		if ev.finished {
			ev.st.done = true
		}
		// After the thread paused, the CPU keeps whatever environment
		// the thread was in; curEnv tracks it for the next dispatch.
		s.curEnv = ev.st.task.env
	}

	// Park the CPU back in the trusted environment.
	if s.curEnv != s.prog.lb.Trusted() {
		if err := s.execute(s.prog.lb.Trusted()); err != nil {
			return err
		}
	}
	for _, st := range s.threads {
		if st.err != nil {
			return fmt.Errorf("thread %s: %w", st.name, st.err)
		}
	}
	return nil
}

// execute switches the scheduler CPU into env through LitterBox's
// Execute. Every thread is parked, so the scheduler takes the run
// token for the switch itself.
func (s *Sched) execute(env *litterbox.Env) error {
	s.prog.run.Lock()
	defer s.prog.run.Unlock()
	if err := s.prog.lb.Execute(s.cpu, s.curEnv, env); err != nil {
		return err
	}
	s.curEnv = env
	return nil
}

// next picks the next unfinished thread round-robin.
func (s *Sched) next() *SchedThread {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.threads)
	for i := 0; i < n; i++ {
		st := s.threads[(s.rr+i)%n]
		if !st.done {
			s.rr = (s.rr + i + 1) % n
			return st
		}
	}
	return nil
}

// park hands control back to Run and blocks until rescheduled.
func (s *Sched) park(st *SchedThread) {
	s.events <- yieldEvent{st: st}
	<-st.resume
}

// Yield cooperatively gives up the scheduler CPU, releasing the run
// token until the scheduler resumes the thread. No-op on tasks not
// managed by a Sched (ordinary goroutines have their own CPU).
func (t *Task) Yield() {
	if t.sched == nil {
		return
	}
	t.checkAlive()
	if st := t.sched.threadOf(t); st != nil {
		defer t.unpark(t.park())
		t.sched.park(st)
	}
}

func (s *Sched) threadOf(t *Task) *SchedThread {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.threads {
		if st.task == t {
			return st
		}
	}
	return nil
}
