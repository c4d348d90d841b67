package litterbox_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/litterbox"
)

// cloneOf clones the fixture's LitterBox the way snapstart does: over a
// copy-on-write address space, with its own kernel, process and clock.
func cloneOf(t *testing.T, f *fixture, lb *litterbox.LitterBox) *litterbox.LitterBox {
	t.Helper()
	space, secMap := f.space.CloneCoW()
	img := f.img.CloneWith(space, f.img.Graph.Share(), secMap)
	clock := hw.NewClock()
	k, err := f.k.Clone(space, clock, secMap)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := f.proc.CloneInto(k)
	if err != nil {
		t.Fatal(err)
	}
	c, err := lb.CloneInto(litterbox.CloneDeps{Image: img, Kernel: k, Proc: proc, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBindingFallsBackToProgram: a CPU with no binding, and a CPU whose
// binding ResetTo cleared, resolve the program-wide Proc and abort; a
// bound CPU resolves its own, and its faults stay in its domain.
func TestBindingFallsBackToProgram(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewBaseline())
	unbound := hw.NewCPU(hw.NewClock())
	if lb.ProcFor(unbound) != lb.Proc || lb.DomainFor(unbound) != nil {
		t.Fatal("an unbound CPU does not resolve the program-wide state")
	}

	c := cloneOf(t, f, lb)
	cpu := hw.NewCPU(c.Clock)
	st := &litterbox.CPUState{Proc: f.k.NewProc(1, 9, 3), Domain: &litterbox.FaultDomain{}, Name: "w"}
	c.BindWorker(c.Clock, st)
	if c.ProcFor(cpu) != st.Proc || c.DomainFor(cpu) != st.Domain {
		t.Fatal("a bound CPU does not resolve its binding")
	}
	c.RaiseFault(cpu, &litterbox.Fault{Op: "test"})
	if _, dead := c.AbortedOn(cpu); !dead {
		t.Fatal("a fault on a bound CPU did not abort its domain")
	}
	if _, dead := c.Aborted(); dead {
		t.Fatal("a fault on a bound CPU aborted the whole program")
	}

	c.ResetTo(lb)
	if c.ProcFor(cpu) != c.Proc || c.DomainFor(cpu) != nil {
		t.Fatal("after ResetTo the CPU still resolves its old binding")
	}
	if _, dead := c.AbortedOn(cpu); dead {
		t.Fatal("after ResetTo the CPU still reports its old domain's abort")
	}
	f1 := c.RaiseFault(cpu, &litterbox.Fault{Op: "test"})
	if got, dead := c.Aborted(); !dead || got != f1 {
		t.Fatal("a fault on a CPU unbound by ResetTo did not abort the program")
	}
	if got, dead := c.AbortedOn(unbound); !dead || got != f1 {
		t.Fatal("the program abort does not reach an unbound CPU")
	}
}

// TestBindingNewestWins: binding a clock again shadows its first
// binding, and a state cannot be bound twice.
func TestBindingNewestWins(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewBaseline())
	clock := hw.NewClock()
	first := &litterbox.CPUState{Proc: f.k.NewProc(1, 10, 3)}
	second := &litterbox.CPUState{Proc: f.k.NewProc(1, 11, 3)}
	lb.BindWorker(clock, first)
	lb.BindWorker(hw.NewClock(), &litterbox.CPUState{Proc: f.k.NewProc(1, 12, 3)})
	lb.BindWorker(clock, second)
	if got := lb.ProcFor(hw.NewCPU(clock)); got != second.Proc {
		t.Fatal("a rebound clock does not resolve its newest binding")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("binding one CPUState twice did not panic")
		}
	}()
	lb.BindWorker(hw.NewClock(), first)
}

// TestBindingConcurrentReaders binds workers while readers resolve
// them: every reader sees each published binding whole, and an unbound
// clock's program-wide fallback. Like a program's simulated goroutines,
// binder and readers take turns on one mutex, which stands in for the
// run token. Run it under -race.
func TestBindingConcurrentReaders(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewBaseline())
	const workers = 64
	clocks := make([]*hw.Clock, workers)
	states := make([]*litterbox.CPUState, workers)
	for i := range states {
		clocks[i] = hw.NewClock()
		states[i] = &litterbox.CPUState{
			Proc: f.k.NewProc(1, uint32(100+i), 3), Domain: &litterbox.FaultDomain{}, Name: fmt.Sprint("cpu", i),
		}
	}
	var run sync.Mutex
	bound := 0
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	// pass resolves every binding made so far and reports how many.
	pass := func(stray *hw.CPU) (int, error) {
		run.Lock()
		defer run.Unlock()
		for j := 0; j < bound; j++ {
			cpu := hw.NewCPU(clocks[j])
			if lb.ProcFor(cpu) != states[j].Proc || lb.DomainFor(cpu) != states[j].Domain {
				return 0, fmt.Errorf("worker %d resolves another binding", j)
			}
			if _, dead := lb.AbortedOn(cpu); dead {
				return 0, fmt.Errorf("worker %d reads as aborted", j)
			}
		}
		if lb.ProcFor(stray) != lb.Proc || lb.DomainFor(stray) != nil {
			return 0, errors.New("an unbound CPU resolves a binding")
		}
		return bound, nil
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stray := hw.NewCPU(hw.NewClock())
			for n := 0; n < workers; {
				var err error
				if n, err = pass(stray); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := range states {
		run.Lock()
		lb.BindWorker(clocks[i], states[i])
		bound = i + 1
		run.Unlock()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFaultUnwrapsCause: a fault keeps its backend-level cause in the
// error chain, so errors.Is finds a bad call-site token through it on
// every enforcing backend (the baseline checks no token).
func TestFaultUnwrapsCause(t *testing.T) {
	for _, name := range []string{"mpk", "vtx", "cheri"} {
		t.Run(name, func(t *testing.T) {
			f := newFixture(t)
			lb := f.initWith(t, backends(f)[name])
			if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
				t.Fatal(err)
			}
			_, err := lb.Prolog(f.cpu, lb.Trusted(), 1, f.img.Enclosures[0].Token+1)
			var fault *litterbox.Fault
			if !errors.As(err, &fault) || fault.Op != "switch" {
				t.Fatalf("Prolog with a bad token: %v, want a switch fault", err)
			}
			if !errors.Is(err, litterbox.ErrBadToken) || !errors.Is(fmt.Errorf("request: %w", err), litterbox.ErrBadToken) {
				t.Fatalf("errors.Is does not find ErrBadToken through %v", err)
			}
			if errors.Is(err, litterbox.ErrAborted) {
				t.Fatal("errors.Is matches an unrelated error")
			}
		})
	}
}
