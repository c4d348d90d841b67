package core

import (
	"errors"
	"testing"

	"github.com/litterbox-project/enclosure/internal/litterbox"
)

// TestSplitStackIsolatesCallerFrames: a stack local of the caller is
// unaddressable inside the enclosure — the paper's reason for split
// stacks.
func TestSplitStackIsolatesCallerFrames(t *testing.T) {
	forEachEnforcing(t, func(t *testing.T, kind BackendKind) {
		b := NewBuilder(kind)
		b.Package(PackageSpec{Name: "main", Imports: []string{"lib"}})
		b.Package(PackageSpec{Name: "lib", Funcs: map[string]Func{
			"Snoop": func(t *Task, args ...Value) ([]Value, error) {
				caller := args[0].(Ref)
				_ = t.ReadBytes(caller) // the caller's stack local
				return nil, nil
			},
		}})
		b.Enclosure("e", "main", "sys:none",
			func(t *Task, args ...Value) ([]Value, error) {
				return t.Call("lib", "Snoop", args...)
			}, "lib")
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		err = prog.Run(func(task *Task) error {
			// A local variable on main's split stack.
			local := task.StackAlloc(64)
			task.WriteBytes(local.Slice(0, 8), []byte("stackkey"))
			_, err := prog.MustEnclosure("e").Call(task, local)
			return err
		})
		var fault *litterbox.Fault
		if !errors.As(err, &fault) || fault.Op != "read" {
			t.Fatalf("enclosure read the caller's stack frame: %v", err)
		}
	})
}

// TestSplitStackFrameLifecycle: enclosure-frame allocations are
// released on return; depth tracks nesting.
func TestSplitStackFrameLifecycle(t *testing.T) {
	b := NewBuilder(MPK)
	b.Package(PackageSpec{Name: "main", Imports: []string{"lib"}})
	b.Package(PackageSpec{Name: "lib"})
	var inDepth int
	b.Enclosure("e", "main", "sys:none",
		func(t *Task, args ...Value) ([]Value, error) {
			inDepth = len(t.frames)
			tmp := t.StackAlloc(128)
			t.WriteBytes(tmp.Slice(0, 4), []byte("temp"))
			return nil, nil
		}, "lib")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	err = prog.Run(func(task *Task) error {
		_ = task.StackAlloc(32) // outer frame materialises
		base := len(task.frames)
		live := prog.Heap().Arena(EnclPkgName("e")).Live()
		if _, err := prog.MustEnclosure("e").Call(task); err != nil {
			return err
		}
		if inDepth != base+1 {
			t.Errorf("depth inside enclosure %d, want %d", inDepth, base+1)
		}
		if len(task.frames) != base {
			t.Errorf("depth after return %d, want %d", len(task.frames), base)
		}
		// The enclosure's stack temporary was freed with its frame.
		if got := prog.Heap().Arena(EnclPkgName("e")).Live(); got != live {
			t.Errorf("enclosure frame leaked %d allocations", got-live)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitStackOwnCurrentFrameUsable: the enclosure can use its own
// stack locals freely.
func TestSplitStackOwnCurrentFrameUsable(t *testing.T) {
	forEachBackend(t, func(t *testing.T, kind BackendKind) {
		b := NewBuilder(kind)
		b.Package(PackageSpec{Name: "main", Imports: []string{"lib"}})
		b.Package(PackageSpec{Name: "lib"})
		b.Enclosure("e", "main", "sys:none",
			func(t *Task, args ...Value) ([]Value, error) {
				local := t.StackAlloc(16)
				t.Store64(local.Addr, 7)
				return []Value{t.Load64(local.Addr)}, nil
			}, "lib")
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		err = prog.Run(func(task *Task) error {
			res, err := prog.MustEnclosure("e").Call(task)
			if err != nil {
				return err
			}
			if res[0].(uint64) != 7 {
				t.Errorf("stack local read back %v", res[0])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
