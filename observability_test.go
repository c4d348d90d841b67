package enclosure_test

import (
	"errors"
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure"
)

// TestPublicAPIOptions: the functional options thread a tracer, the
// audit recorder, and the default engine worker count through New into
// the built program, and New(backend) with no options still works (the
// rest of this file's tests and buildDoc rely on that compatibility).
func TestPublicAPIOptions(t *testing.T) {
	tr := enclosure.NewTrace(64)
	b := enclosure.New(enclosure.MPK,
		enclosure.WithTracer(tr), enclosure.WithAudit(), enclosure.WithEngineWorkers(3))
	b.Package(enclosure.PackageSpec{
		Name:    "main",
		Imports: []string{"libFx"},
		Vars:    map[string]int{"secret": 64},
	})
	b.Package(enclosure.PackageSpec{
		Name: "libFx",
		Funcs: map[string]enclosure.Func{
			"Work": func(task *enclosure.Task, args ...enclosure.Value) ([]enclosure.Value, error) {
				task.Store8(args[0].(enclosure.Ref).Addr, 0) // main is read-only
				return []enclosure.Value{1}, nil
			},
		},
	})
	b.Enclosure("work", "main", "main:R; sys:none",
		func(task *enclosure.Task, args ...enclosure.Value) ([]enclosure.Value, error) {
			return task.Call("libFx", "Work", args...)
		}, "libFx")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if prog.Tracer() != tr {
		t.Error("WithTracer did not reach the program")
	}
	if prog.Audit() == nil {
		t.Fatal("WithAudit did not reach the program")
	}
	if n := prog.DefaultEngineWorkers(); n != 3 {
		t.Errorf("DefaultEngineWorkers = %d, want 3", n)
	}

	// In audit mode the read-only write is recorded, not fatal.
	err = prog.Run(func(task *enclosure.Task) error {
		secret, err := prog.VarRef("main", "secret")
		if err != nil {
			return err
		}
		res, err := prog.MustEnclosure("work").Call(task, secret)
		if err != nil {
			return err
		}
		if res[0].(int) != 1 {
			t.Errorf("Work returned %v", res[0])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("audit mode faulted: %v", err)
	}
	if v := prog.Audit().Violations(); v == 0 {
		t.Error("violation not recorded")
	}
	if got := prog.Audit().Derive("work"); !strings.Contains(got, "main:RW") {
		t.Errorf("derived policy %q does not grant the observed write", got)
	}

	snap := tr.Snapshot()
	if snap.Events == 0 {
		t.Fatal("tracer recorded no events")
	}
	if s := snap.Summary(); !strings.Contains(s, "events") {
		t.Errorf("Summary() = %q", s)
	}
}

// TestAsFaultJoinedErrors: a fault that travels inside an errors.Join
// tree — as wiki.NewConnHandler's stop function returns when it joins
// every worker's Handle errors — must still be extracted by AsFault.
func TestAsFaultJoinedErrors(t *testing.T) {
	prog := buildDoc(t, enclosure.MPK, func(task *enclosure.Task, args ...enclosure.Value) ([]enclosure.Value, error) {
		task.Store8(args[0].(enclosure.Ref).Addr, 0) // main is read-only: faults
		return nil, nil
	})
	faultErr := prog.Run(func(task *enclosure.Task) error {
		secret, _ := prog.VarRef("main", "secret")
		_, err := prog.MustEnclosure("work").Call(task, secret)
		return err
	})
	if _, ok := enclosure.AsFault(faultErr); !ok {
		t.Fatalf("no fault to join: %v", faultErr)
	}

	joined := errors.Join(errors.New("worker 0: connection reset"), faultErr)
	fault, ok := enclosure.AsFault(joined)
	if !ok {
		t.Fatalf("AsFault missed the fault inside %v", joined)
	}
	if fault.Op != "write" {
		t.Errorf("fault op %q, want write", fault.Op)
	}

	// Nested joins (a join of per-worker joins) unwrap too.
	nested := errors.Join(errors.Join(errors.New("a"), errors.New("b")), errors.Join(faultErr))
	if _, ok := enclosure.AsFault(nested); !ok {
		t.Errorf("AsFault missed the fault inside the nested join %v", nested)
	}
	if _, ok := enclosure.AsFault(errors.Join(errors.New("a"), errors.New("b"))); ok {
		t.Error("AsFault invented a fault from a fault-free join")
	}
}
