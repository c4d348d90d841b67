package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mem"
)

// buildSchedProgram: two packages, two enclosures with disjoint views.
func buildSchedProgram(t *testing.T, kind BackendKind) *Program {
	t.Helper()
	b := NewBuilder(kind)
	b.Package(PackageSpec{Name: "main", Imports: []string{"libA", "libB"}})
	b.Package(PackageSpec{
		Name: "libA", Vars: map[string]int{"state": 64},
		Funcs: map[string]Func{
			"Work": func(t *Task, args ...Value) ([]Value, error) {
				ref, _ := t.prog.VarRef("libA", "state")
				for i := 0; i < 4; i++ {
					t.Store8(ref.Addr+mem.Addr(i), byte('A'))
					t.Yield() // give up the CPU mid-enclosure
				}
				return nil, nil
			},
		},
	})
	b.Package(PackageSpec{
		Name: "libB", Vars: map[string]int{"state": 64},
		Funcs: map[string]Func{
			"Work": func(t *Task, args ...Value) ([]Value, error) {
				ref, _ := t.prog.VarRef("libB", "state")
				for i := 0; i < 4; i++ {
					t.Store8(ref.Addr+mem.Addr(i), byte('B'))
					t.Yield()
				}
				return nil, nil
			},
			"Steal": func(t *Task, args ...Value) ([]Value, error) {
				t.Yield() // resumed in the same restricted environment…
				ref, _ := t.prog.VarRef("libA", "state")
				_ = t.ReadBytes(ref) // …so this foreign read must fault
				return nil, nil
			},
		},
	})
	b.Enclosure("ea", "main", "sys:none", func(t *Task, args ...Value) ([]Value, error) {
		return t.Call("libA", "Work")
	}, "libA")
	b.Enclosure("eb", "main", "sys:none", func(t *Task, args ...Value) ([]Value, error) {
		return t.Call("libB", "Work")
	}, "libB")
	b.Enclosure("esteal", "main", "sys:none", func(t *Task, args ...Value) ([]Value, error) {
		return t.Call("libB", "Steal")
	}, "libB")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestSchedulerInterleavesEnclosures(t *testing.T) {
	forEachBackend(t, func(t *testing.T, kind BackendKind) {
		prog := buildSchedProgram(t, kind)
		s, err := prog.NewScheduler()
		if err != nil {
			t.Fatal(err)
		}
		s.Spawn("worker-a", func(task *Task) error {
			_, err := prog.MustEnclosure("ea").Call(task)
			return err
		})
		s.Spawn("worker-b", func(task *Task) error {
			_, err := prog.MustEnclosure("eb").Call(task)
			return err
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		// Both workloads completed under their own views.
		check := prog.Run(func(task *Task) error {
			a, _ := prog.VarRef("libA", "state")
			bref, _ := prog.VarRef("libB", "state")
			if task.Load8(a.Addr) != 'A' || task.Load8(bref.Addr) != 'B' {
				return errors.New("thread state lost across yields")
			}
			return nil
		})
		if check != nil {
			t.Fatal(check)
		}
		if kind != Baseline && s.Resumes() == 0 {
			t.Error("interleaved enclosures without Execute resumes")
		}
	})
}

// TestSchedulerPreservesRestrictionsAcrossYield: a thread yielding
// inside an enclosure resumes with the same restricted view — the
// scheduler's Execute reinstates it before the thread continues.
func TestSchedulerPreservesRestrictionsAcrossYield(t *testing.T) {
	forEachEnforcing(t, func(t *testing.T, kind BackendKind) {
		prog := buildSchedProgram(t, kind)
		s, err := prog.NewScheduler()
		if err != nil {
			t.Fatal(err)
		}
		stealer := s.Spawn("stealer", func(task *Task) error {
			_, err := prog.MustEnclosure("esteal").Call(task)
			return err
		})
		// A trusted thread interleaves, forcing environment switches
		// around the stealer's yield.
		s.Spawn("trusted", func(task *Task) error {
			for i := 0; i < 3; i++ {
				ref, _ := prog.VarRef("libA", "state")
				task.Store8(ref.Addr, 0x55) // trusted may write anything
				task.Yield()
			}
			return nil
		})
		err = s.Run()
		var fault *litterbox.Fault
		if !errors.As(err, &fault) || fault.Op != "read" {
			t.Fatalf("foreign read after yield did not fault: %v (thread err %v)", err, stealer.Err())
		}
	})
}

func TestSchedulerCountsEnvironmentSwitches(t *testing.T) {
	prog := buildSchedProgram(t, MPK)
	s, err := prog.NewScheduler()
	if err != nil {
		t.Fatal(err)
	}
	before := prog.Counters().Switches
	s.Spawn("a", func(task *Task) error {
		_, err := prog.MustEnclosure("ea").Call(task)
		return err
	})
	s.Spawn("b", func(task *Task) error {
		_, err := prog.MustEnclosure("eb").Call(task)
		return err
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	delta := prog.Counters().Switches - before
	// 4 yields per thread interleaving two disjoint environments: at
	// least one Execute per resume, plus the Prolog/Epilog pairs.
	if delta < int64(s.Resumes())+4 {
		t.Fatalf("switches %d < resumes %d + enclosure entries", delta, s.Resumes())
	}
	if s.Resumes() < 8 {
		t.Fatalf("only %d Execute resumes for 8 interleaved yields", s.Resumes())
	}
}

func TestSchedulerManyThreads(t *testing.T) {
	b := NewBuilder(MPK)
	b.Package(PackageSpec{Name: "main", Vars: map[string]int{"counter": 8}})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := prog.NewScheduler()
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := 0; i < n; i++ {
		s.Spawn(fmt.Sprintf("t%d", i), func(task *Task) error {
			ref, _ := prog.VarRef("main", "counter")
			for j := 0; j < 5; j++ {
				v := task.Load64(ref.Addr)
				task.Yield() // cooperative: no other thread runs between ops
				task.Store64(ref.Addr, v+1)
			}
			return nil
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Interleaved read-yield-write loses increments deterministically —
	// what matters here is that the scheduler ran all 16 threads to
	// completion on one CPU without deadlock; the final count proves
	// at least the last writer landed.
	_ = prog.Run(func(task *Task) error {
		ref, _ := prog.VarRef("main", "counter")
		if task.Load64(ref.Addr) == 0 {
			t.Error("no thread made progress")
		}
		return nil
	})
}

// TestSchedulerResumesAfterBlockingWait: a thread blocked inside an
// enclosure, on a hand-off or in the kernel on an empty accept backlog,
// lets a trusted sibling run on the scheduler CPU. Once woken it
// resumes under its own view: the scheduler Executes the CPU back, and
// the thread's read of a variable outside that view faults.
func TestSchedulerResumesAfterBlockingWait(t *testing.T) {
	forEachEnforcing(t, func(t *testing.T, kind BackendKind) {
		for _, wait := range []string{"hand-off", "accept"} {
			t.Run(wait, func(t *testing.T) {
				const port = 7071
				prog := ownedProgram(t, kind)
				slots, err := prog.VarRef("main", "slots")
				if err != nil {
					t.Fatal(err)
				}
				s, err := prog.NewScheduler()
				if err != nil {
					t.Fatal(err)
				}
				wake := NewHandoff[int](0)
				boxed := s.Spawn("boxed", func(task *Task) error {
					_, err := prog.MustEnclosure("box").Call(task, func(task *Task) ([]Value, error) {
						if wait == "hand-off" {
							wake.Recv(task)
						} else {
							ln, err := sysOK(task, kernel.NrSocket)
							if err != nil {
								return nil, err
							}
							if _, err := sysOK(task, kernel.NrBind, ln, uint64(DefaultHostIP), port); err != nil {
								return nil, err
							}
							if _, err := sysOK(task, kernel.NrListen, ln); err != nil {
								return nil, err
							}
							if _, err := sysOK(task, kernel.NrAccept, ln); err != nil {
								return nil, err
							}
						}
						_ = task.Load64(slots.Addr) // outside the box's view
						return nil, fmt.Errorf("read outside the view after the %s wait did not fault", wait)
					})
					return err
				})
				s.Spawn("trusted", func(task *Task) error {
					task.Store64(slots.Addr, 1) // trusted may write anything
					if wait == "hand-off" {
						wake.Send(task, 1)
						return nil
					}
					c, err := sysOK(task, kernel.NrSocket)
					if err != nil {
						return err
					}
					_, err = sysOK(task, kernel.NrConnect, c, uint64(DefaultHostIP), port)
					return err
				})
				err = s.Run()
				var fault *litterbox.Fault
				if !errors.As(err, &fault) || fault.Op != "read" {
					t.Fatalf("Run: %v (boxed: %v), want the boxed thread's read fault", err, boxed.Err())
				}
				if s.Resumes() < 2 {
					t.Fatalf("%d Execute resumes, want one into the trusted thread and one back", s.Resumes())
				}
			})
		}
	})
}
