package pyfront

import (
	"fmt"
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
)

// pyWorld builds a minimal two-module interpreter world.
func pyWorld(t *testing.T, kind core.BackendKind, mode Mode, policy string, body func(*Interp, *core.Task) error) error {
	t.Helper()
	in := NewInterp(mode)
	b := core.NewBuilder(kind)
	b.Package(core.PackageSpec{Name: "py/app", Imports: []string{"py/mod"}})
	b.Package(core.PackageSpec{
		Name: "py/mod",
		Vars: map[string]int{"shared": HeaderSize + 64},
		Funcs: map[string]core.Func{
			"run": func(t *core.Task, args ...core.Value) ([]core.Value, error) {
				return nil, body(in, t)
			},
		},
	})
	b.Enclosure("e", "py/app", policy,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call("py/mod", "run")
		}, "py/mod")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog.Run(func(t *core.Task) error {
		_, err := prog.MustEnclosure("e").Call(t)
		return err
	})
}

func TestRefcountLifecycle(t *testing.T) {
	err := pyWorld(t, core.MPK, Decoupled, "sys:none", func(in *Interp, t *core.Task) error {
		obj := in.NewObject(t, []byte("payload"))
		if refcount(t, obj) != 1 {
			return errFmt("fresh refcount %d", refcount(t, obj))
		}
		if in.Incref(t, obj) != 2 {
			return errFmt("incref")
		}
		if in.Decref(t, obj) != 1 {
			return errFmt("decref")
		}
		if string(t.ReadBytes(obj.Payload())) != "payload" {
			return errFmt("payload corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func errFmt(f string, args ...any) error { return fmt.Errorf(f, args...) }

func TestNegativeRefcountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("decref below zero did not panic")
		}
	}()
	_ = pyWorld(t, core.Baseline, Decoupled, "sys:none", func(in *Interp, task *core.Task) error {
		obj := in.NewObject(task, nil)
		in.Decref(task, obj)
		in.Decref(task, obj) // panics
		return nil
	})
}

func TestCollectFreesGarbage(t *testing.T) {
	err := pyWorld(t, core.MPK, Decoupled, "sys:none", func(in *Interp, task *core.Task) error {
		a := in.NewObject(task, []byte("a"))
		b := in.NewObject(task, []byte("b"))
		c := in.NewObject(task, []byte("c"))
		in.Decref(task, a)
		in.Decref(task, c)
		freed := in.Collect(task, "py/mod")
		if freed != 2 {
			return errFmt("freed %d, want 2", freed)
		}
		// b survives with its payload.
		if string(task.ReadBytes(b.Payload())) != "b" {
			return errFmt("survivor corrupted")
		}
		// A second collection finds nothing.
		if again := in.Collect(task, "py/mod"); again != 0 {
			return errFmt("double collect freed %d", again)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConservativeCountsSwitches(t *testing.T) {
	in := NewInterp(Conservative)
	b := core.NewBuilder(core.VTX)
	b.Package(core.PackageSpec{Name: "py/app", Imports: []string{"py/mod"}})
	b.Package(core.PackageSpec{Name: "py/mod", Funcs: map[string]core.Func{
		"run": func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			obj := in.NewObject(t, nil) // gcLink: 1 round trip
			in.Incref(t, obj)           // 1
			in.Decref(t, obj)           // 1
			return nil, nil
		},
	}})
	b.Enclosure("e", "py/app", "sys:none",
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call("py/mod", "run")
		}, "py/mod")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	err = prog.Run(func(t *core.Task) error {
		_, err := prog.MustEnclosure("e").Call(t)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.Switches != 6 { // 3 round trips × 2 switches
		t.Fatalf("switches = %d, want 6", in.Switches)
	}
}

func TestDecoupledNoSwitches(t *testing.T) {
	in := NewInterp(Decoupled)
	err := pyWorld(t, core.VTX, Decoupled, "sys:none", func(_ *Interp, task *core.Task) error {
		obj := in.NewObject(task, nil)
		in.Incref(task, obj)
		in.Decref(task, obj)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.Switches != 0 {
		t.Fatalf("decoupled switches = %d", in.Switches)
	}
}

// TestConservativeWritesReadOnlyMetadata: the controlled switch lets the
// interpreter update a refcount on memory the enclosure itself may only
// read — the exact §5.2 mechanism.
func TestConservativeWritesReadOnlyMetadata(t *testing.T) {
	in := NewInterp(Conservative)
	b := core.NewBuilder(core.MPK)
	b.Package(core.PackageSpec{Name: "py/app", Imports: []string{"py/secret", "py/mod"}})
	b.Package(core.PackageSpec{Name: "py/secret", Vars: map[string]int{"data": HeaderSize + 32}})
	b.Package(core.PackageSpec{Name: "py/mod", Funcs: map[string]core.Func{
		"run": func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			obj := args[0].(PyObject)
			in.Incref(t, obj) // read-only module: needs the trusted trip
			return nil, nil
		},
	}})
	b.Enclosure("e", "py/app", "py/secret:R; sys:none",
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call("py/mod", "run", args...)
		}, "py/mod")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	err = prog.Run(func(task *core.Task) error {
		ref, err := prog.VarRef("py/secret", "data")
		if err != nil {
			return err
		}
		task.Store64(ref.Addr, 1) // initial refcount, trusted
		obj := PyObject{Ref: ref}
		if _, err := prog.MustEnclosure("e").Call(task, obj); err != nil {
			return err
		}
		if got := task.Load64(ref.Addr); got != 2 {
			return errFmt("refcount after enclosed incref = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.Switches != 2 {
		t.Fatalf("switches = %d, want 2", in.Switches)
	}
}

// TestDecoupledDirectWriteToReadOnlyFaults: without the trusted trip,
// writing a read-only module's metadata faults — proving the switches
// are what made the conservative mode work.
func TestDecoupledDirectWriteToReadOnlyFaults(t *testing.T) {
	in := NewInterp(Decoupled)
	b := core.NewBuilder(core.MPK)
	b.Package(core.PackageSpec{Name: "py/app", Imports: []string{"py/secret", "py/mod"}})
	b.Package(core.PackageSpec{Name: "py/secret", Vars: map[string]int{"data": HeaderSize + 32}})
	b.Package(core.PackageSpec{Name: "py/mod", Funcs: map[string]core.Func{
		"run": func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			in.Incref(t, args[0].(PyObject))
			return nil, nil
		},
	}})
	b.Enclosure("e", "py/app", "py/secret:R; sys:none",
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call("py/mod", "run", args...)
		}, "py/mod")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	err = prog.Run(func(t *core.Task) error {
		ref, _ := prog.VarRef("py/secret", "data")
		t.Store64(ref.Addr, 1)
		_, err := prog.MustEnclosure("e").Call(t, PyObject{Ref: ref})
		return err
	})
	if err == nil {
		t.Fatal("direct metadata write to read-only module did not fault")
	}
}

func TestLocalCopy(t *testing.T) {
	err := pyWorld(t, core.MPK, Decoupled, "sys:none", func(in *Interp, task *core.Task) error {
		src := in.NewObject(task, []byte("deep"))
		dst := in.LocalCopy(task, src)
		if string(task.ReadBytes(dst.Payload())) != "deep" {
			return errFmt("copy payload")
		}
		if dst.Ref.Addr == src.Ref.Addr {
			return errFmt("localcopy aliased")
		}
		if refcount(task, dst) != 1 {
			return errFmt("copy refcount")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if Conservative.String() != "conservative" || Decoupled.String() != "decoupled" {
		t.Fatal("mode strings")
	}
}

// refcount reads obj's current reference count, independent of mode.
func refcount(t *core.Task, obj PyObject) uint64 {
	return t.Load64(obj.headerAddr() + offRefcount)
}
