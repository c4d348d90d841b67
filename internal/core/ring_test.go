package core

import (
	"errors"
	"reflect"
	"testing"

	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/ring"
)

// buildRingProbe builds a one-enclosure program whose lib.Probe runs fn.
func buildRingProbe(t *testing.T, kind BackendKind, policy string, fn Func, opts ...Option) *Program {
	t.Helper()
	b := NewBuilder(kind, opts...)
	b.Package(PackageSpec{Name: "main", Imports: []string{"lib"}})
	b.Package(PackageSpec{Name: "lib", Funcs: map[string]Func{"Probe": fn}})
	b.Enclosure("e", "main", policy, func(task *Task, args ...Value) ([]Value, error) {
		return task.Call("lib", "Probe")
	}, "lib")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// ringWorkload submits a mixed batch — filtered proc calls plus one
// runtime entry — and returns the reaped completions.
func ringWorkload(task *Task) []ring.Completion {
	task.SubmitSyscall(1, kernel.NrGetpid)
	task.SubmitSyscall(2, kernel.NrGetuid)
	task.SubmitRuntimeSyscall(3, kernel.NrGetpid)
	task.SubmitSyscall(4, kernel.NrGetpid)
	return task.FlushSyscalls()
}

// TestRingBatchedMatchesSequential runs the same submissions with the
// ring on and off on every backend: completions must be identical, and
// must agree with plain Task.Syscall results.
func TestRingBatchedMatchesSequential(t *testing.T) {
	for _, kind := range Backends {
		t.Run(kind.String(), func(t *testing.T) {
			run := func(opts ...Option) []ring.Completion {
				var got []ring.Completion
				prog := buildRingProbe(t, kind, "sys:proc",
					func(task *Task, args ...Value) ([]Value, error) {
						got = ringWorkload(task)
						return nil, nil
					}, opts...)
				if err := prog.Run(func(task *Task) error {
					_, err := prog.MustEnclosure("e").Call(task)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				return got
			}
			batched := run(WithSyscallRing(4))
			sequential := run() // ring off: submit API executes per call
			if !reflect.DeepEqual(batched, sequential) {
				t.Errorf("batched completions %+v != sequential %+v", batched, sequential)
			}
			if len(batched) != 4 {
				t.Fatalf("got %d completions, want 4", len(batched))
			}
			// Cross-check against the plain syscall path.
			prog := buildRingProbe(t, kind, "sys:proc",
				func(task *Task, args ...Value) ([]Value, error) {
					pid, errno := task.Syscall(kernel.NrGetpid)
					if batched[0].Ret != pid || batched[0].Errno != errno {
						t.Errorf("batched getpid = (%d,%v), Task.Syscall = (%d,%v)",
							batched[0].Ret, batched[0].Errno, pid, errno)
					}
					return nil, nil
				})
			if err := prog.Run(func(task *Task) error {
				_, err := prog.MustEnclosure("e").Call(task)
				return err
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRingMidBatchDenial checks batched denial semantics on the
// enforcing backends: entries before the denial execute, the denied
// entry faults through RaiseFault exactly like Task.Syscall, and later
// entries never dispatch.
func TestRingMidBatchDenial(t *testing.T) {
	for _, kind := range []BackendKind{MPK, VTX, CHERI} {
		t.Run(kind.String(), func(t *testing.T) {
			prog := buildRingProbe(t, kind, "sys:proc",
				func(task *Task, args ...Value) ([]Value, error) {
					task.SubmitSyscall(1, kernel.NrGetpid)
					task.SubmitSyscall(2, kernel.NrSocket) // CatNet: denied
					task.SubmitSyscall(3, kernel.NrGetuid) // must cancel, not run
					task.FlushSyscalls()
					t.Error("FlushSyscalls returned past a denied entry")
					return nil, nil
				}, WithSyscallRing(8))
			err := prog.Run(func(task *Task) error {
				_, err := prog.MustEnclosure("e").Call(task)
				return err
			})
			var fault *litterbox.Fault
			if !errors.As(err, &fault) {
				t.Fatalf("denied batch entry did not fault: %v", err)
			}
			if fault.Op != "syscall" || fault.Detail != "socket" {
				t.Errorf("fault = op %q detail %q, want syscall/socket", fault.Op, fault.Detail)
			}
			// Only the entries up to and including the denial attempt may
			// have entered the kernel; the canceled tail must not dispatch.
			// (MPK dispatches the denied entry into the in-kernel filter;
			// VTX/CHERI deny guest-side before invoking, so allow 1 or 2.)
			snap := prog.Counters().Snapshot()
			if snap.RingEntries < 1 || snap.RingEntries > 2 {
				t.Errorf("RingEntries = %d after mid-batch denial, want 1 or 2", snap.RingEntries)
			}
			if snap.RingBatches != 1 {
				t.Errorf("RingBatches = %d, want 1", snap.RingBatches)
			}
		})
	}
}

// TestRingMidBatchAudit checks that audit mode lets a denied batch
// entry through (recording the violation) and the batch continues —
// mirroring the sequential audit path.
func TestRingMidBatchAudit(t *testing.T) {
	for _, kind := range []BackendKind{MPK, VTX, CHERI} {
		t.Run(kind.String(), func(t *testing.T) {
			run := func(opts ...Option) []ring.Completion {
				var got []ring.Completion
				prog := buildRingProbe(t, kind, "sys:proc",
					func(task *Task, args ...Value) ([]Value, error) {
						task.SubmitSyscall(1, kernel.NrGetpid)
						task.SubmitSyscall(2, kernel.NrGetuid)
						task.SubmitSyscall(3, kernel.NrGetpid)
						got = task.FlushSyscalls()
						return nil, nil
					}, opts...)
				if err := prog.Run(func(task *Task) error {
					_, err := prog.MustEnclosure("e").Call(task)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				return got
			}
			// Audit-mode equivalence with a violating middle entry.
			runViolating := func(opts ...Option) []ring.Completion {
				var got []ring.Completion
				prog := buildRingProbe(t, kind, "sys:proc",
					func(task *Task, args ...Value) ([]Value, error) {
						task.SubmitSyscall(1, kernel.NrGetpid)
						task.SubmitSyscall(2, kernel.NrSocket) // violation, audited through
						task.SubmitSyscall(3, kernel.NrGetuid)
						got = task.FlushSyscalls()
						return nil, nil
					}, opts...)
				if err := prog.Run(func(task *Task) error {
					_, err := prog.MustEnclosure("e").Call(task)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				if prog.Audit() == nil {
					t.Fatal("audit recorder missing")
				}
				return got
			}
			clean := run(WithSyscallRing(4))
			if len(clean) != 3 {
				t.Fatalf("clean batch: %d completions, want 3", len(clean))
			}
			on := runViolating(WithAudit(), WithSyscallRing(4))
			off := runViolating(WithAudit())
			if !reflect.DeepEqual(on, off) {
				t.Errorf("audit batched %+v != audit sequential %+v", on, off)
			}
			if len(on) != 3 {
				t.Fatalf("audited batch: %d completions, want 3", len(on))
			}
			for _, c := range on {
				if c.Errno == kernel.ECANCELED {
					t.Errorf("audit mode canceled entry %d", c.Tag)
				}
			}
		})
	}
}

// TestWithSyscallRingPanicsOnBadDepth pins the option's contract.
func TestWithSyscallRingPanicsOnBadDepth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WithSyscallRing(0) did not panic")
		}
	}()
	WithSyscallRing(0)
}

// TestRingAmortizesTrapCost pins the cost model: a depth-32 batch of
// allowed calls must accrue far less virtual time than 32 sequential
// calls on every enforcing backend (the whole point of the ring).
func TestRingAmortizesTrapCost(t *testing.T) {
	for _, kind := range []BackendKind{MPK, VTX, CHERI} {
		t.Run(kind.String(), func(t *testing.T) {
			elapsed := func(opts ...Option) int64 {
				prog := buildRingProbe(t, kind, "sys:proc",
					func(task *Task, args ...Value) ([]Value, error) {
						start := task.CPU().Clock.Now()
						for i := 0; i < 32; i++ {
							task.SubmitSyscall(uint64(i), kernel.NrGetpid)
						}
						task.FlushSyscalls()
						if task.CPU().Clock.Now() <= start {
							t.Fatal("no virtual time accrued")
						}
						return nil, nil
					}, opts...)
				before := prog.Clock().Now()
				if err := prog.Run(func(task *Task) error {
					_, err := prog.MustEnclosure("e").Call(task)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				return prog.Clock().Now() - before
			}
			on := elapsed(WithSyscallRing(32))
			off := elapsed()
			if on*2 >= off {
				t.Errorf("batched batch of 32 cost %dns, sequential %dns: expected >2x amortization", on, off)
			}
		})
	}
}

// TestRingFlushZeroAlloc pins the ring's storage reuse: once warm, a
// 3-entry batch submitted and flushed on a ring-built program allocates
// nothing on any backend — the drain runs the batch in place, writes
// completions into ring-owned slots and reaps the CQ without copying.
func TestRingFlushZeroAlloc(t *testing.T) {
	for _, kind := range []BackendKind{Baseline, MPK, VTX, CHERI} {
		t.Run(kind.String(), func(t *testing.T) {
			prog := buildRingProbe(t, kind, "sys:proc",
				func(task *Task, args ...Value) ([]Value, error) {
					batch := func() {
						task.SubmitSyscall(1, kernel.NrGetpid)
						task.SubmitSyscall(2, kernel.NrGetuid)
						task.SubmitRuntimeSyscall(3, kernel.NrGetpid)
						if cs := task.FlushSyscalls(); len(cs) != 3 || cs[2].Tag != 3 {
							t.Fatalf("FlushSyscalls = %+v, want 3 completions", cs)
						}
					}
					batch() // warm: the ring's slots and CQ are lazily made
					if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
						t.Errorf("3-entry submit+flush allocates %.1f objects/op, want 0", allocs)
					}
					return nil, nil
				}, WithSyscallRing(8))
			if err := prog.Run(func(task *Task) error {
				_, err := prog.MustEnclosure("e").Call(task)
				return err
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
