package engine

// End-to-end warm admission: with core.WithWarmPool active, every job
// the engine admits runs in its own snapshot clone, so a job's writes
// to package state are invisible to every later job. The workers are
// stepped on their own goroutines; CI runs this under -race.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/kernel"
)

func buildWarmEngineProgram(t *testing.T, opts ...core.Option) *core.Program {
	t.Helper()
	b := core.NewBuilder(core.MPK, opts...)
	b.Package(core.PackageSpec{
		Name: "main", Vars: map[string]int{"state": 32}, Origin: "app",
	})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestWarmAdmissionIsolatesJobs: each job must observe main.state as
// Build left it, then scribble on it — a leak from any earlier job
// through a recycled instance would trip the check.
func TestWarmAdmissionIsolatesJobs(t *testing.T) {
	prog := buildWarmEngineProgram(t, core.WithWarmPool(2))
	e := New(prog, Opts{Workers: 2})
	defer e.Close()
	if e.warm == nil {
		t.Fatal("warm mode off despite WithWarmPool")
	}

	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	const jobs = 24
	dirty := bytes.Repeat([]byte{0xEE}, 32)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		err := e.Submit(JobSpec{Pref: i % 2, Name: fmt.Sprintf("job%d", i), Fn: func(task *core.Task) error {
			p := task.Prog()
			if !p.IsSnapshotInstance() {
				return fmt.Errorf("job ran on the shared program, not a warm clone")
			}
			ref, err := p.VarRef("main", "state")
			if err != nil {
				return err
			}
			if got := task.ReadBytes(ref); bytes.Contains(got, []byte{0xEE}) {
				return fmt.Errorf("previous job's writes leaked into this instance: %x", got)
			}
			task.WriteBytes(ref, dirty)
			return nil
		}, Done: func(err error) {
			mu.Lock()
			if err != nil {
				errs = append(errs, err)
			}
			mu.Unlock()
			wg.Done()
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	stepAll(e)
	wg.Wait()
	for _, err := range errs {
		t.Error(err)
	}

	stats, ok := e.WarmStats()
	if !ok {
		t.Fatal("WarmStats unavailable")
	}
	if stats.Hits+stats.Misses != jobs {
		t.Fatalf("pool served %d jobs, want %d", stats.Hits+stats.Misses, jobs)
	}
	if stats.Hits == 0 {
		t.Fatal("no pool hits across sequential jobs — recycling never engaged")
	}
	clones, recycles := e.WarmTemplate().Stats()
	if clones == 0 || recycles == 0 {
		t.Fatalf("template stats clones=%d recycles=%d, want both > 0", clones, recycles)
	}
}

// TestWarmDisabledWithoutOption: a program built without WithWarmPool
// runs jobs on the shared program exactly as before.
func TestWarmDisabledWithoutOption(t *testing.T) {
	prog := buildWarmEngineProgram(t)
	e := New(prog, Opts{Workers: 1})
	defer e.Close()
	if e.warm != nil {
		t.Fatal("warm mode on without WithWarmPool")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var shared bool
	if err := e.Submit(JobSpec{Name: "probe", Fn: func(task *core.Task) error {
		shared = task.Prog() == prog
		return nil
	}, Done: func(error) { wg.Done() }}); err != nil {
		t.Fatal(err)
	}
	stepAll(e)
	wg.Wait()
	if !shared {
		t.Fatal("job did not run on the shared program")
	}
}

// TestWarmMetricsFoldInstanceWorkers: a warm job runs on the worker
// context its instance owns, not on the engine worker's, so the
// engine must fold that context's Prolog cache counts and faults into
// its worker's metrics. Ten jobs enter an enclosure once each on one
// worker: each instance misses once, on its first job, and hits on
// every later one. An eleventh job faults.
func TestWarmMetricsFoldInstanceWorkers(t *testing.T) {
	b := core.NewBuilder(core.MPK, core.WithWarmPool(2))
	b.Package(core.PackageSpec{
		Name: "main", Imports: []string{"lib"}, Vars: map[string]int{"secret": 8}, Origin: "app",
	})
	b.Package(core.PackageSpec{Name: "lib", Origin: "public"})
	b.Enclosure("peek", "main", "sys:none", func(task *core.Task, args ...core.Value) ([]core.Value, error) {
		if len(args) > 0 {
			task.Load64(args[0].(core.Ref).Addr)
		}
		return nil, nil
	}, "lib")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := New(prog, Opts{Workers: 1})
	defer e.Close()
	submit := func(fn Job) {
		t.Helper()
		if err := e.Submit(JobSpec{Name: "peek", Fn: fn}); err != nil {
			t.Fatal(err)
		}
		if _, ok := e.StepWorker(0); !ok {
			t.Fatal("no job ran")
		}
	}
	const jobs = 10
	for range jobs {
		submit(func(task *core.Task) error {
			_, err := task.Prog().MustEnclosure("peek").Call(task)
			return err
		})
	}
	m := e.Metrics()[0]
	clones, _ := e.WarmTemplate().Stats()
	if m.EnvMiss != clones || m.EnvHits != jobs-clones {
		t.Fatalf("metrics read %d cache hits and %d misses over %d jobs on %d instances, want %d and %d",
			m.EnvHits, m.EnvMiss, jobs, clones, jobs-clones, clones)
	}
	submit(func(task *core.Task) error {
		secret, err := task.Prog().VarRef("main", "secret")
		if err != nil {
			return err
		}
		_, err = task.Prog().MustEnclosure("peek").Call(task, secret)
		return err
	})
	if m := e.Metrics()[0]; m.Faults != 1 {
		t.Fatalf("metrics read %d faults after a warm job faulted, want 1", m.Faults)
	}
}

// TestWarmMetricsFoldInstanceClock: a warm job charges the clock and
// counters of its instance's worker, which the recycle zeroes, so the
// engine folds each job's clock advance and counter deltas into its
// worker's metrics. Five jobs of 1,000 ns, each making one system
// call, read 5,000 ns and five system calls, and ElapsedNs over the
// window reads the same 5,000 ns.
func TestWarmMetricsFoldInstanceClock(t *testing.T) {
	prog := buildWarmEngineProgram(t, core.WithWarmPool(2))
	e := New(prog, Opts{Workers: 1})
	defer e.Close()
	if e.WarmTemplate() == nil {
		t.Fatal("warm mode is off")
	}
	before := e.Metrics()
	const jobs, jobNs = 5, 1000
	for range jobs {
		err := e.Submit(JobSpec{Name: "tick", Fn: func(task *core.Task) error {
			clock := task.CPU().Clock
			from := clock.Now()
			task.Syscall(kernel.NrGetpid)
			task.Compute(jobNs - (clock.Now() - from))
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := e.StepWorker(0); !ok {
			t.Fatal("no job ran")
		}
	}
	after := e.Metrics()
	m := after[0]
	if m.ClockNs != jobs*jobNs || m.Counters.Syscalls != jobs {
		t.Fatalf("metrics read %d ns and %d syscalls over %d warm jobs, want %d and %d",
			m.ClockNs, m.Counters.Syscalls, jobs, jobs*jobNs, jobs)
	}
	if got := ElapsedNs(before, after); got != jobs*jobNs {
		t.Fatalf("ElapsedNs over the warm jobs reads %d, want %d", got, jobs*jobNs)
	}
}
