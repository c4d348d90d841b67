package core

import (
	"fmt"

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
// It is a thin layer over the program's run queue (run.go): Run queues
// the threads in Spawn order and Task.Yield re-queues a thread at the
// tail. A thread resumes at its first turn and whenever a wait (a
// yield, a hand-off, a join, a kernel network wait) hands it the token
// back; when its environment differs from the one the CPU is in, the
// scheduler invokes LitterBox's Execute, so preempted enclosures always
// resume under their own restrictions.
type Sched struct {
	prog    *Program
	cpu     *hw.CPU
	threads []*SchedThread
	// last is the thread whose turn started last: the CPU is in its
	// environment (trusted while last is nil).
	last    *Task
	resumes int64 // Execute-mediated environment installs
}

// SchedThread is one user-level thread managed by a Sched.
type SchedThread struct {
	task *Task
	body func(*Task) error
	err  error
}

// Err returns the thread's result after Sched.Run.
func (st *SchedThread) Err() error { return st.err }

// Name returns the thread's name.
func (st *SchedThread) Name() string { return st.task.name }

// NewScheduler returns a scheduler with its own single virtual CPU,
// initially in the trusted environment.
func (p *Program) NewScheduler() (*Sched, error) {
	s := &Sched{prog: p, cpu: p.newCPU()}
	p.q.Lock()
	defer p.q.Unlock()
	if err := p.lb.InstallEnv(s.cpu, p.lb.Trusted()); err != nil {
		return nil, err
	}
	return s, nil
}

// Resumes reports how many environment-changing resumes Execute
// performed (for the scheduling ablation).
func (s *Sched) Resumes() int64 { return s.resumes }

// Spawn registers a user-level thread starting in the trusted
// environment (entering enclosures inside the body restricts it, and
// the restriction is preserved across yields). Threads start in Spawn
// order when Run is called.
func (s *Sched) Spawn(name string, body func(*Task) error) *SchedThread {
	t := newTask(s.prog, name, s.prog.lb.Trusted(), "main")
	t.cpu = s.cpu // all threads share the scheduler's CPU
	t.sched = s
	st := &SchedThread{task: t, body: body}
	s.threads = append(s.threads, st)
	return st
}

// Run queues every thread, waits until all of them finish, and parks
// the CPU back in the trusted environment.
func (s *Sched) Run() error {
	q := &s.prog.q
	hs := make([]*Handle, len(s.threads))
	q.Lock()
	for i, st := range s.threads {
		hs[i] = s.prog.start(st.task, st.body)
	}
	q.Unlock()
	for i, h := range hs {
		s.threads[i].err = h.Join(nil)
	}

	q.Lock()
	defer q.Unlock()
	if from := s.env(); from != s.prog.lb.Trusted() {
		if err := s.prog.lb.Execute(s.cpu, from, s.prog.lb.Trusted()); err != nil {
			return err
		}
	}
	s.last = nil
	for _, st := range s.threads {
		if st.err != nil {
			return fmt.Errorf("thread %s: %w", st.Name(), st.err)
		}
	}
	return nil
}

// env returns the environment the scheduler CPU is in.
func (s *Sched) env() *litterbox.Env {
	if s.last == nil {
		return s.prog.lb.Trusted()
	}
	return s.last.env
}

// resume starts a turn of t on the scheduler CPU: at its start and
// after every wait, whatever ran meanwhile. When the thread that ran
// last left the CPU in another environment, Execute switches it into
// t's.
func (s *Sched) resume(t *Task) error {
	from := s.env()
	s.last = t
	if t.env == from {
		return nil
	}
	if err := s.prog.lb.Execute(s.cpu, from, t.env); err != nil {
		return err
	}
	s.resumes++
	return nil
}

// Yield cooperatively gives up the scheduler CPU: the thread joins the
// tail of the run queue and resumes once every task queued before it
// has had a turn. No-op on tasks not managed by a Sched (ordinary
// goroutines have their own CPU).
func (t *Task) Yield() {
	if t.sched == nil {
		return
	}
	t.checkAlive()
	q := &t.prog.q
	w := q.waiter(t)
	q.ready(w)
	q.block(w)
}
