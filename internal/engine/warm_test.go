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
