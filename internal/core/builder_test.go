package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/mem"
)

func TestBuilderDuplicatePackage(t *testing.T) {
	b := NewBuilder(Baseline)
	b.Package(PackageSpec{Name: "dup"})
	b.Package(PackageSpec{Name: "dup"})
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate package built")
	}
}

func TestBuilderBadInitPolicy(t *testing.T) {
	b := NewBuilder(Baseline)
	b.Package(PackageSpec{
		Name:       "p",
		Init:       func(t *Task, args ...Value) ([]Value, error) { return nil, nil },
		InitPolicy: "sys:warp9",
	})
	if _, err := b.Build(); !errors.Is(err, ErrBadPolicy) {
		t.Fatalf("bad init policy: %v", err)
	}
}

func TestBuilderAddressSpaceSize(t *testing.T) {
	b := NewBuilder(Baseline, WithAddressSpaceSize(64*mem.PageSize))
	b.Package(PackageSpec{Name: "main", Vars: map[string]int{"big": 16 * mem.PageSize}})
	if _, err := b.Build(); err != nil {
		t.Fatalf("sized build: %v", err)
	}

	tiny := NewBuilder(Baseline, WithAddressSpaceSize(2*mem.PageSize))
	tiny.Package(PackageSpec{Name: "main", Vars: map[string]int{"big": 64 * mem.PageSize}})
	if _, err := tiny.Build(); err == nil {
		t.Fatal("oversized program built in a tiny address space")
	}
}

func TestProgramAccessors(t *testing.T) {
	b := NewBuilder(MPK)
	b.Package(PackageSpec{
		Name:   "main",
		Consts: map[string][]byte{"banner": []byte("hello")},
		Vars:   map[string]int{"counter": 8},
	})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if prog.Backend() != MPK {
		t.Error("Backend accessor")
	}
	if prog.Clock() == nil || prog.Counters() == nil || prog.Kernel() == nil ||
		prog.Proc() == nil || prog.FS() == nil || prog.Net() == nil ||
		prog.Heap() == nil || prog.LitterBox() == nil || prog.Graph() == nil ||
		prog.Image() == nil {
		t.Error("nil accessor")
	}
	c, err := prog.ConstRef("main", "banner")
	if err != nil || c.Size != 5 {
		t.Fatalf("ConstRef: %v %v", c, err)
	}
	err = prog.Run(func(task *Task) error {
		if got := task.ReadString(c); got != "hello" {
			t.Errorf("const content %q", got)
		}
		// AllocIn places into a named arena.
		r := task.AllocIn("main", 64)
		if owner := prog.Heap().OwnerOf(r.Addr); owner != "main" {
			t.Errorf("AllocIn owner %q", owner)
		}
		// RuntimeSyscall from trusted is a plain syscall.
		if uid, errno := task.RuntimeSyscall(kernel.NrGetuid); errno != kernel.OK || uid != 1000 {
			t.Errorf("RuntimeSyscall: %d %v", uid, errno)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewSpanAndTransferSpan(t *testing.T) {
	b := NewBuilder(VTX)
	b.Package(PackageSpec{Name: "main", Imports: []string{"lib"}})
	b.Package(PackageSpec{Name: "lib"})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	span, err := prog.NewSpan(4 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if span.Pkg != kernel.HeapOwner {
		t.Fatalf("fresh span owner %q", span.Pkg)
	}
	if err := prog.TransferSpan(span, "lib"); err != nil {
		t.Fatal(err)
	}
	if span.Pkg != "lib" {
		t.Fatalf("span owner after transfer %q", span.Pkg)
	}
	if prog.Counters().Transfers != 1 {
		t.Fatalf("transfer count %d", prog.Counters().Transfers)
	}
}

func TestEnclPkgName(t *testing.T) {
	if EnclPkgName("rcl") != "encl.rcl" {
		t.Fatalf("EnclPkgName = %q", EnclPkgName("rcl"))
	}
}

func TestMustEnclosurePanics(t *testing.T) {
	b := NewBuilder(Baseline)
	b.Package(PackageSpec{Name: "main"})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("MustEnclosure on a missing name did not panic")
		} else if !strings.Contains(r.(error).Error(), "ghost") {
			t.Fatalf("panic payload %v", r)
		}
	}()
	prog.MustEnclosure("ghost")
}

func TestNonFaultPanicPropagates(t *testing.T) {
	b := NewBuilder(MPK)
	b.Package(PackageSpec{Name: "main", Imports: []string{"lib"}})
	b.Package(PackageSpec{Name: "lib", Funcs: map[string]Func{
		"Boom": func(t *Task, args ...Value) ([]Value, error) { panic("app bug") },
	}})
	b.Enclosure("e", "main", "sys:none", func(t *Task, args ...Value) ([]Value, error) {
		return t.Call("lib", "Boom")
	}, "lib")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != "app bug" {
			t.Fatalf("panic payload %v", r)
		}
	}()
	_ = prog.Run(func(task *Task) error {
		_, err := prog.MustEnclosure("e").Call(task)
		return err
	})
	t.Fatal("application panic swallowed")
}
