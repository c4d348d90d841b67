package engine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
)

// buildProg builds a minimal program: a main package plus a "res"
// resource package guarded by a no-syscall enclosure.
func buildProg(t *testing.T, kind core.BackendKind, body core.Func) *core.Program {
	t.Helper()
	b := core.NewBuilder(kind)
	b.Package(core.PackageSpec{Name: "main", Origin: "app", LOC: 10})
	b.Package(core.PackageSpec{
		Name:   "res",
		Origin: "app", LOC: 5,
		Consts: map[string][]byte{"page": []byte("resource-bytes")},
	})
	if body != nil {
		b.Enclosure("guard", "main", "sys:none", body, "res")
	}
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// submit admits fn with affinity for worker pref and returns the
// channel its completion error arrives on.
func submit(t *testing.T, e *Engine, pref int, name string, fn Job) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	if err := e.Submit(JobSpec{Pref: pref, Name: name, Fn: fn, Done: func(err error) { done <- err }}); err != nil {
		t.Fatal(err)
	}
	return done
}

func nop(*core.Task) error { return nil }

// stepAll steps every worker on its own goroutine until no work is
// left anywhere — distinct workers executing at once, as StepWorker
// allows — and waits for them.
func stepAll(e *Engine) {
	var wg sync.WaitGroup
	for i := 0; i < e.Workers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, ok := e.StepWorker(i); !ok {
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPoolRunsJobsAcrossWorkers(t *testing.T) {
	prog := buildProg(t, core.MPK, nil)
	e := New(prog, Opts{Workers: 4})
	defer e.Close()

	// Phase 1: four jobs that must run simultaneously, each worker
	// stepped on its own goroutine — a worker runs one job at a time, so
	// the barrier only clears with every worker engaged.
	arrived := make(chan struct{}, 4)
	release := make(chan struct{})
	var barrier []<-chan error
	for i := 0; i < 4; i++ {
		barrier = append(barrier, submit(t, e, i, fmt.Sprintf("barrier%d", i), func(t *core.Task) error {
			t.Compute(1000)
			arrived <- struct{}{}
			<-release
			return nil
		}))
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); e.StepWorker(i) }()
	}
	for i := 0; i < 4; i++ {
		<-arrived
	}
	close(release)
	wg.Wait()
	for _, done := range barrier {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// Phase 2: a larger batch on the discrete-event loop, checked by
	// totals.
	const jobs = 64
	var ran atomic.Int64
	var batch []<-chan error
	for i := 0; i < jobs; i++ {
		batch = append(batch, submit(t, e, i, fmt.Sprintf("job%d", i), func(t *core.Task) error {
			t.Compute(1000)
			r := t.AllocIn("main", 64)
			t.WriteBytes(r, []byte("hello"))
			ran.Add(1)
			return nil
		}))
	}
	if err := e.StepUntil(math.MaxInt64, nil); err != nil {
		t.Fatal(err)
	}
	for _, done := range batch {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if ran.Load() != jobs {
		t.Fatalf("ran %d/%d jobs", ran.Load(), jobs)
	}
	ms := e.Metrics()
	if got := TotalRequests(ms); got != jobs+4 {
		t.Fatalf("metrics count %d jobs, want %d", got, jobs+4)
	}
	// Every worker executed jobs and accrued virtual time on its own
	// clock.
	for _, m := range ms {
		if m.Requests == 0 {
			t.Errorf("worker %d executed nothing", m.Worker)
		}
		if m.ClockNs == 0 {
			t.Errorf("worker %d accrued no virtual time", m.Worker)
		}
	}
}

// TestStepUntilOrdersByHorizon pins the discrete-event loop: the worker
// with the earliest horizon steps first (ties to the lowest index), the
// loop stops once every worker is busy past T, and an error from the
// callback stops it at once.
func TestStepUntilOrdersByHorizon(t *testing.T) {
	prog := buildProg(t, core.Baseline, nil)
	e := New(prog, Opts{Workers: 2, QueueDepth: 8})
	defer e.Close()
	work := func(t *core.Task) error { t.Compute(1000); return nil }
	for _, name := range []string{"a", "b", "c"} {
		if err := e.Submit(JobSpec{Name: name, Fn: work}); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	each := func(r StepResult) error {
		order = append(order, fmt.Sprintf("%s@%d", r.Name, r.Worker))
		return nil
	}
	// Both workers are free at 0; once each holds a job, neither is.
	if err := e.StepUntil(0, each); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "a@0 b@1" {
		t.Fatalf("steps up to 0 = %q, want \"a@0 b@1\"", got)
	}
	if got := e.Load(); got != 1 {
		t.Fatalf("Load = %d after stepping to 0, want 1 queued", got)
	}
	stop := errors.New("stop")
	if err := e.StepUntil(math.MaxInt64, func(StepResult) error { return stop }); err != stop {
		t.Fatalf("StepUntil = %v, want the callback's error", err)
	}
	if got := e.Load(); got != 0 {
		t.Fatalf("Load = %d after the last step, want 0", got)
	}
}

func TestWorkStealing(t *testing.T) {
	prog := buildProg(t, core.Baseline, nil)
	e := New(prog, Opts{Workers: 4, QueueDepth: 128})
	defer e.Close()

	// Flood worker 0's queue: every sibling is virtually idle while it
	// is busy, so stepping in horizon order spreads the flood by steals.
	const jobs = 80
	for i := 0; i < jobs; i++ {
		if err := e.Submit(JobSpec{Name: "flood", Fn: func(t *core.Task) error {
			t.Compute(5000)
			return nil
		}}); err != nil {
			t.Fatalf("submit rejected below queue depth: %v", err)
		}
	}
	if err := e.StepUntil(math.MaxInt64, nil); err != nil {
		t.Fatal(err)
	}
	ms := e.Metrics()
	if TotalRequests(ms) != jobs {
		t.Fatalf("executed %d/%d", TotalRequests(ms), jobs)
	}
	if got, want := TotalSteals(ms), jobs-ms[0].Requests; got == 0 || got != want {
		t.Fatalf("steals %d, want %d (every job worker 0 did not run):\n%s", got, want, MetricsString(ms))
	}
	for _, m := range ms {
		if m.Requests == 0 {
			t.Errorf("worker %d stole nothing:\n%s", m.Worker, MetricsString(ms))
		}
	}
	if MaxQueueDepth(ms) != jobs {
		t.Fatalf("queue depth high-water mark %d, want %d", MaxQueueDepth(ms), jobs)
	}
}

func TestBackpressureRejects(t *testing.T) {
	prog := buildProg(t, core.Baseline, nil)
	e := New(prog, Opts{Workers: 1, QueueDepth: 1})

	// The depth-1 queue takes exactly one job until it is stepped.
	if err := e.Submit(JobSpec{Name: "first", Fn: nop}); err != nil {
		t.Fatalf("first rejected: %v", err)
	}
	if err := e.Submit(JobSpec{Name: "overflow", Fn: nop}); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("full engine: err = %v, want ErrBackpressure", err)
	}
	if _, ok := e.StepWorker(0); !ok {
		t.Fatal("nothing to step")
	}
	if err := e.Submit(JobSpec{Name: "queued", Fn: nop}); err != nil {
		t.Fatalf("stepped queue should have room for one job: %v", err)
	}
	e.Close() // steps the queued job
	ms := e.Metrics()
	if ms[0].Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", ms[0].Rejected)
	}
	if TotalRequests(ms) != 2 {
		t.Fatalf("executed %d, want 2", TotalRequests(ms))
	}
	// Closed engine rejects everything, with the terminal error.
	if err := e.Submit(JobSpec{Name: "late", Fn: nop}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed engine: err = %v, want ErrClosed", err)
	}
	if err := e.Submit(JobSpec{Name: "late2", Fn: nop}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed engine second submit: err = %v, want ErrClosed", err)
	}
}

// TestConcurrentEnclosureIsolation is the multi-core safety property:
// two workers inside the same enclosure at once get independent
// environments and independent faults — a protection fault on worker A
// never aborts worker B, and the program as a whole stays alive. The
// two workers are stepped on two goroutines at once and take turns on
// the program's run token: each waits for the other inside the
// enclosure through a hand-off, which lets the other run. B goes on as
// soon as A's fault lands and finishes its call before A's domain is
// reset, so a worker bound to the wrong domain fails every round. Run
// repeatedly to shake interleavings (and under -race).
func TestConcurrentEnclosureIsolation(t *testing.T) {
	// Baseline is the paper's no-enforcement control — it cannot fault —
	// so the property is checked on the enforcing backends.
	for _, kind := range []core.BackendKind{core.MPK, core.VTX} {
		t.Run(kind.String(), func(t *testing.T) {
			var aIn, bIn, landed *core.Handoff[struct{}]

			body := func(task *core.Task, args ...core.Value) ([]core.Value, error) {
				switch args[0].(string) {
				case "fault":
					aIn.Send(task, struct{}{}) // rendezvous: both sides are inside the enclosure
					bIn.Recv(task)
					// "sys:none" forbids every system call: this faults and
					// aborts only this worker's domain.
					task.Syscall(kernel.NrGetpid)
					return nil, fmt.Errorf("unreachable: filtered syscall returned")
				default: // "work"
					bIn.Send(task, struct{}{})
					aIn.Recv(task)
					// Wait until the sibling worker's fault has landed, then
					// prove this environment still works end to end.
					landed.Recv(task)
					page, err := task.Prog().ConstRef("res", "page")
					if err != nil {
						return nil, err
					}
					if got := task.ReadString(page); got != "resource-bytes" {
						return nil, fmt.Errorf("read %q inside enclosure", got)
					}
					task.Compute(500)
					return []core.Value{"ok"}, nil
				}
			}
			prog := buildProg(t, kind, body)
			e := New(prog, Opts{Workers: 2})
			defer e.Close()
			guard := prog.MustEnclosure("guard")

			const rounds = 20
			for i := 0; i < rounds; i++ {
				aIn = core.NewHandoff[struct{}](1)
				bIn = core.NewHandoff[struct{}](1)
				landed = core.NewHandoff[struct{}](1)

				// Each job runs on its own worker, each worker stepped on
				// its own goroutine, so both are inside the enclosure at
				// once.
				var stepping sync.WaitGroup
				step := func(i int) {
					stepping.Add(1)
					go func() { defer stepping.Done(); e.StepWorker(i) }()
				}
				running := make(chan *core.WorkerCtx, 1)
				workDone := make(chan struct{})
				pa := submit(t, e, 0, "faulter", func(task *core.Task) error {
					running <- task.Worker()
					// The engine resets A's domain only once this job
					// returns, and the fault unwinds it as a panic: a
					// deferred wait (host code, no token) keeps A aborted
					// for the whole of B's enclosure call.
					defer func() { <-workDone }()
					_, err := guard.Call(task, "fault")
					return err
				})
				step(0)
				victim := <-running
				faultsBefore := victim.Domain().Faults()
				// The fault count moves in RaiseFault, while A still holds
				// the token: a host goroutine watching it lets B go on
				// as soon as A unwinds and lets go, before A's Reset.
				go func() {
					for victim.Domain().Faults() == faultsBefore {
						time.Sleep(50 * time.Microsecond)
					}
					landed.Send(nil, struct{}{})
				}()
				pb := submit(t, e, 1, "worker", func(task *core.Task) error {
					defer close(workDone)
					res, err := guard.Call(task, "work")
					if err != nil {
						return err
					}
					if res[0].(string) != "ok" {
						return fmt.Errorf("enclosure result %v", res[0])
					}
					return nil
				})
				step(1)

				// The faulting job dies with the protection fault...
				errA := <-pa
				var f *litterbox.Fault
				if !errors.As(errA, &f) {
					t.Fatalf("round %d: faulter returned %v, want *litterbox.Fault", i, errA)
				}
				if !strings.Contains(f.Error(), "getpid") && f.Op != "syscall" {
					t.Fatalf("round %d: unexpected fault %v", i, f)
				}
				// ...while the sibling worker's enclosure call, running
				// concurrently in the same enclosure, is untouched.
				if err := <-pb; err != nil {
					t.Fatalf("round %d: innocent worker aborted: %v", i, err)
				}
				// The program-wide abort never fires: faults stay in the
				// worker's domain.
				if pf, dead := prog.Fault(); dead {
					t.Fatalf("round %d: program-wide abort: %v", i, pf)
				}
				stepping.Wait()
			}
			ms := e.Metrics()
			var faults int64
			for _, m := range ms {
				faults += m.Faults
			}
			if faults != rounds {
				t.Fatalf("fault count %d, want %d\n%s", faults, rounds, MetricsString(ms))
			}
			// Engine still serves after every round's fault.
			after := submit(t, e, 0, "after", nop)
			e.StepWorker(0)
			if err := <-after; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDriversShareOneProgram: several host goroutines step distinct
// workers of one engine at once, so each drives the one program's
// coroutines while the others wait for its run token. Every job
// spawns a task, trades hand-offs with it and joins it; every job
// completes, and the workers' clocks add up to what the same jobs run
// one at a time charge.
func TestDriversShareOneProgram(t *testing.T) {
	const workers, jobs, trips = 4, 32, 5
	run := func(concurrent bool) []WorkerMetrics {
		prog := buildProg(t, core.MPK, nil)
		e := New(prog, Opts{Workers: workers, QueueDepth: jobs})
		defer e.Close()
		var dones []<-chan error
		for j := 0; j < jobs; j++ {
			dones = append(dones, submit(t, e, j%workers, fmt.Sprintf("job%d", j), func(task *core.Task) error {
				req, rep := core.NewHandoff[int](0), core.NewHandoff[int](0)
				h := task.Go("echo", func(ct *core.Task) error {
					for {
						v, ok := req.Recv(ct)
						if !ok {
							return nil
						}
						ct.Compute(10)
						rep.Send(ct, v+1)
					}
				})
				for i := 0; i < trips; i++ {
					req.Send(task, i)
					if v, _ := rep.Recv(task); v != i+1 {
						return fmt.Errorf("echo %d -> %d", i, v)
					}
				}
				req.Close(task)
				return h.Join(task)
			}))
		}
		if concurrent {
			stepAll(e)
		} else {
			for i := 0; i < workers; i++ {
				for {
					if _, ok := e.StepWorker(i); !ok {
						break
					}
				}
			}
		}
		for _, done := range dones {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		return e.Metrics()
	}
	total := func(ms []WorkerMetrics) (n int64) {
		for _, m := range ms {
			n += m.ClockNs
		}
		return n
	}
	seq, par := run(false), run(true)
	if TotalRequests(par) != jobs || total(par) != total(seq) {
		t.Fatalf("stepped at once: %d jobs charging %d ns; one at a time: %d jobs charging %d ns",
			TotalRequests(par), total(par), TotalRequests(seq), total(seq))
	}
}
