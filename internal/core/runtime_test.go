package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
)

// nestingProgram builds: outer encloses {libA, libB} with sys:file,io;
// inner encloses {libB} with sys:net,io. Their intersection must be
// {libB} with sys:io only.
func nestingProgram(t *testing.T, kind BackendKind, inner Func) *Program {
	t.Helper()
	b := NewBuilder(kind)
	b.Package(PackageSpec{Name: "main", Imports: []string{"libA", "libB"}})
	b.Package(PackageSpec{Name: "libA", Vars: map[string]int{"state": 16}})
	b.Package(PackageSpec{Name: "libB", Vars: map[string]int{"state": 16}})
	b.Enclosure("outer", "main", "sys:file,io",
		func(t *Task, args ...Value) ([]Value, error) {
			inner, err := t.prog.Enclosure("inner")
			if err != nil {
				return nil, err
			}
			return inner.Call(t, args...)
		}, "libA", "libB")
	b.Enclosure("inner", "main", "sys:net,io", inner, "libB")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestNestingRestrictsView(t *testing.T) {
	forEachEnforcing(t, func(t *testing.T, kind BackendKind) {
		// Inner alone could read libB; nested inside outer it still can.
		prog := nestingProgram(t, kind, func(task *Task, args ...Value) ([]Value, error) {
			ref, err := task.prog.VarRef("libB", "state")
			if err != nil {
				return nil, err
			}
			_ = task.ReadBytes(ref)
			return nil, nil
		})
		err := prog.Run(func(task *Task) error {
			_, err := prog.MustEnclosure("outer").Call(task)
			return err
		})
		if err != nil {
			t.Fatalf("libB should be readable in the intersection: %v", err)
		}

		// libA is in outer's view but NOT in inner's: the nested
		// environment must not see it.
		prog = nestingProgram(t, kind, func(task *Task, args ...Value) ([]Value, error) {
			ref, err := task.prog.VarRef("libA", "state")
			if err != nil {
				return nil, err
			}
			_ = task.ReadBytes(ref)
			return nil, nil
		})
		err = prog.Run(func(task *Task) error {
			_, err := prog.MustEnclosure("outer").Call(task)
			return err
		})
		var fault *litterbox.Fault
		if !errors.As(err, &fault) {
			t.Fatalf("nested read of libA should fault, got %v", err)
		}
	})
}

func TestNestingIntersectsSyscalls(t *testing.T) {
	forEachEnforcing(t, func(t *testing.T, kind BackendKind) {
		// io is in both filters: allowed when nested.
		prog := nestingProgram(t, kind, func(task *Task, args ...Value) ([]Value, error) {
			if _, errno := task.Syscall(kernel.NrClose, 99); errno != kernel.EBADF {
				return nil, errors.New("close should reach the kernel")
			}
			return nil, nil
		})
		err := prog.Run(func(task *Task) error {
			_, err := prog.MustEnclosure("outer").Call(task)
			return err
		})
		if err != nil {
			t.Fatalf("io syscall in intersection: %v", err)
		}

		// net is only in inner's filter: the intersection rejects it.
		prog = nestingProgram(t, kind, func(task *Task, args ...Value) ([]Value, error) {
			task.Syscall(kernel.NrSocket)
			return nil, nil
		})
		err = prog.Run(func(task *Task) error {
			_, err := prog.MustEnclosure("outer").Call(task)
			return err
		})
		var fault *litterbox.Fault
		if !errors.As(err, &fault) || fault.Op != "syscall" {
			t.Fatalf("net syscall in intersection: %v", err)
		}
	})
}

func TestInnerAloneKeepsItsRights(t *testing.T) {
	// Direct (non-nested) inner calls may use net: proves the nested
	// restriction came from the intersection, not the policy itself.
	forEachEnforcing(t, func(t *testing.T, kind BackendKind) {
		prog := nestingProgram(t, kind, func(task *Task, args ...Value) ([]Value, error) {
			if _, errno := task.Syscall(kernel.NrSocket); errno != kernel.OK {
				return nil, errors.New("socket failed")
			}
			return nil, nil
		})
		err := prog.Run(func(task *Task) error {
			_, err := prog.MustEnclosure("inner").Call(task)
			return err
		})
		if err != nil {
			t.Fatalf("inner alone: %v", err)
		}
	})
}

func TestGoroutineInheritsEnvironment(t *testing.T) {
	// A goroutine spawned inside an enclosure keeps its restrictions
	// (§5.1: transitively inherited execution environments).
	forEachEnforcing(t, func(t *testing.T, kind BackendKind) {
		b := NewBuilder(kind)
		b.Package(PackageSpec{Name: "main", Imports: []string{"lib"}, Vars: map[string]int{"secret": 8}})
		b.Package(PackageSpec{Name: "lib"})
		b.Enclosure("e", "main", "sys:none",
			func(task *Task, args ...Value) ([]Value, error) {
				h := task.Go("inside", func(task *Task) error {
					ref, err := task.prog.VarRef("main", "secret")
					if err != nil {
						return err
					}
					_ = task.ReadBytes(ref) // must fault: main not in view
					return nil
				})
				return nil, h.Join(task)
			}, "lib")
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		err = prog.Run(func(task *Task) error {
			_, err := prog.MustEnclosure("e").Call(task)
			return err
		})
		var fault *litterbox.Fault
		if !errors.As(err, &fault) {
			t.Fatalf("spawned goroutine escaped the enclosure: %v", err)
		}
	})
}

func TestTrustedGoroutineKeepsFullAccess(t *testing.T) {
	forEachBackend(t, func(t *testing.T, kind BackendKind) {
		b := NewBuilder(kind)
		b.Package(PackageSpec{Name: "main", Vars: map[string]int{"x": 8}})
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		err = prog.Run(func(task *Task) error {
			h := task.Go("worker", func(task *Task) error {
				ref, _ := prog.VarRef("main", "x")
				task.Store64(ref.Addr, 7)
				if _, errno := task.Syscall(kernel.NrGetuid); errno != kernel.OK {
					return errors.New("getuid failed")
				}
				return nil
			})
			return h.Join(task)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestEnclosedInitFunction(t *testing.T) {
	// §5.1: imports tagged with a policy run their init inside an
	// enclosure. An init that violates it aborts the build.
	forEachEnforcing(t, func(t *testing.T, kind BackendKind) {
		b := NewBuilder(kind)
		b.Package(PackageSpec{Name: "main", Imports: []string{"dep"}})
		b.Package(PackageSpec{
			Name: "dep",
			Init: func(task *Task, args ...Value) ([]Value, error) {
				task.Syscall(kernel.NrSocket)
				return nil, nil
			},
			InitPolicy: "sys:none",
		})
		_, err := b.Build()
		if err == nil {
			t.Fatal("violating init did not abort the build")
		}
		if !strings.Contains(err.Error(), "fault") {
			t.Fatalf("unexpected build error: %v", err)
		}
	})
}

func TestBenignInitRuns(t *testing.T) {
	ran := []string{}
	b := NewBuilder(Baseline)
	b.Package(PackageSpec{Name: "main", Imports: []string{"a"}})
	b.Package(PackageSpec{Name: "a", Imports: []string{"b"},
		Init: func(task *Task, args ...Value) ([]Value, error) {
			ran = append(ran, "a")
			return nil, nil
		}})
	b.Package(PackageSpec{Name: "b",
		Init: func(task *Task, args ...Value) ([]Value, error) {
			ran = append(ran, "b")
			return nil, nil
		}})
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	// Dependency order: b before a.
	if len(ran) != 2 || ran[0] != "b" || ran[1] != "a" {
		t.Fatalf("init order %v", ran)
	}
}

func TestFaultPoisonsProgram(t *testing.T) {
	prog := buildFigure1(t, MPK, func(task *Task, args ...Value) ([]Value, error) {
		task.Store8(args[0].(Ref).Addr, 1) // faults
		return nil, nil
	})
	orig, _ := prog.VarRef("secrets", "original")
	_ = prog.Run(func(task *Task) error {
		_, err := prog.MustEnclosure("rcl").Call(task, orig)
		return err
	})
	if _, dead := prog.Fault(); !dead {
		t.Fatal("program not aborted")
	}
	// Any further use fails fast with the fault.
	err := prog.Run(func(task *Task) error {
		task.ReadBytes(orig)
		return nil
	})
	var fault *litterbox.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("post-abort operation: %v", err)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(MPK)
	b.Package(PackageSpec{Name: "main"})
	b.Enclosure("e", "main", "ghost:R", func(*Task, ...Value) ([]Value, error) { return nil, nil })
	if _, err := b.Build(); !errors.Is(err, ErrBadPolicy) {
		t.Fatalf("unknown policy package: %v", err)
	}

	b = NewBuilder(MPK)
	b.Package(PackageSpec{Name: "main"})
	b.Enclosure("e", "ghost", "sys:none", func(*Task, ...Value) ([]Value, error) { return nil, nil })
	if _, err := b.Build(); err == nil {
		t.Fatal("enclosure in unknown package built")
	}

	b = NewBuilder(MPK)
	b.Package(PackageSpec{Name: "main"})
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); !errors.Is(err, ErrBuilt) {
		t.Fatalf("double build: %v", err)
	}
}

func TestTaskHelpers(t *testing.T) {
	b := NewBuilder(MPK)
	b.Package(PackageSpec{Name: "main"})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	err = prog.Run(func(task *Task) error {
		r := task.NewString("hello")
		if task.ReadString(r) != "hello" {
			t.Error("NewString/ReadString")
		}
		task.Store64(r.Addr, 0x1122334455667788)
		if task.Load64(r.Addr) != 0x1122334455667788 {
			t.Error("Load64/Store64")
		}
		task.Store8(r.Addr, 9)
		if task.Load8(r.Addr) != 9 {
			t.Error("Load8/Store8")
		}
		task.Free(r)

		if task.CurrentPkg() != "main" {
			t.Errorf("CurrentPkg = %q", task.CurrentPkg())
		}
		if task.Env() == nil || !task.Env().Trusted {
			t.Error("main task not trusted")
		}
		if _, err := task.Call("main", "nope"); !errors.Is(err, ErrNoSuchFunc) {
			t.Error("missing function call")
		}
		if _, err := task.Call("ghostpkg", "f"); !errors.Is(err, ErrNoSuchFunc) {
			t.Error("missing package call")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Enclosure("nope"); !errors.Is(err, ErrNoSuchEncl) {
		t.Fatalf("missing enclosure: %v", err)
	}
	if _, err := prog.VarRef("ghost", "x"); err == nil {
		t.Fatal("VarRef on ghost package")
	}
	if _, err := prog.ConstRef("main", "ghost"); err == nil {
		t.Fatal("ConstRef on ghost const")
	}
}

func TestRefHelpers(t *testing.T) {
	r := Ref{Addr: 0x1000, Size: 10}
	s := r.Slice(2, 4)
	if s.Addr != 0x1002 || s.Size != 4 {
		t.Fatalf("Slice = %v", s)
	}
	if !(Ref{}).IsZero() || r.IsZero() {
		t.Fatal("IsZero")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Slice did not panic")
		}
	}()
	r.Slice(8, 4)
}

func TestBackendKindString(t *testing.T) {
	if Baseline.String() != "baseline" || MPK.String() != "mpk" || VTX.String() != "vtx" {
		t.Fatal("BackendKind strings")
	}
	if BackendKind(42).String() == "" {
		t.Fatal("unknown kind string")
	}
}

func TestEnclosureAccessors(t *testing.T) {
	prog := buildFigure1(t, Baseline, func(task *Task, args ...Value) ([]Value, error) {
		return nil, nil
	})
	e := prog.MustEnclosure("rcl")
	if e.Name() != "rcl" || e.declPkg != "main" || e.Pkg() != EnclPkgName("rcl") {
		t.Fatalf("accessors: %s %s %s", e.Name(), e.declPkg, e.Pkg())
	}
	if e.Env() == nil {
		t.Fatal("nil env")
	}
}

func TestSmallAccessors(t *testing.T) {
	if (Ref{Addr: 0x1000, Size: 4}).String() == "" {
		t.Error("Ref string")
	}
	b := NewBuilder(MPK)
	b.Package(PackageSpec{Name: "main"})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	err = prog.Run(func(task *Task) error {
		if task.CPU() == nil {
			t.Error("CPU accessor")
		}
		before := prog.Clock().Now()
		task.Compute(1234)
		if prog.Clock().Now()-before != 1234 {
			t.Error("Compute charge")
		}
		// Oversized WriteBytes is a runtime fault.
		r := task.Alloc(8)
		defer func() {
			if recover() == nil {
				t.Error("oversized write did not fault")
			}
		}()
		task.WriteBytes(r, make([]byte, 16))
		return nil
	})
	_ = err
}

func TestSchedThreadAccessors(t *testing.T) {
	b := NewBuilder(Baseline)
	b.Package(PackageSpec{Name: "main"})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := prog.NewScheduler()
	if err != nil {
		t.Fatal(err)
	}
	st := s.Spawn("named", func(task *Task) error { return nil })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Name() != "named" || st.Err() != nil {
		t.Errorf("thread accessors: %q %v", st.Name(), st.Err())
	}
}
