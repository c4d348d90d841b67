package core

import (
	"fmt"
	"testing"

	"github.com/litterbox-project/enclosure/internal/mem"
)

// TestConcurrentDynamicImportAndCalls: dynamic imports racing with
// ordinary cross-package calls and memory traffic in other goroutines
// must be safe (run with -race).
func TestConcurrentDynamicImportAndCalls(t *testing.T) {
	b := NewBuilder(MPK)
	b.Package(PackageSpec{Name: "main", Imports: []string{"worker"}})
	b.Package(PackageSpec{
		Name: "worker",
		Vars: map[string]int{"state": 64},
		Funcs: map[string]Func{
			// Spin works on a caller-private 8-byte slot: simulated
			// memory has real memory semantics, so racing goroutines
			// must not share addresses without synchronisation.
			"Spin": func(t *Task, args ...Value) ([]Value, error) {
				slot := args[0].(int)
				ref, err := t.prog.VarRef("worker", "state")
				if err != nil {
					return nil, err
				}
				addr := ref.Addr + mem.Addr(slot*8)
				for i := 0; i < 200; i++ {
					t.Store64(addr, uint64(i))
					_ = t.Load64(addr)
				}
				return nil, nil
			},
		},
	})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	err = prog.Run(func(task *Task) error {
		var handles []*Handle
		// Churning goroutines calling into worker…
		for g := 0; g < 4; g++ {
			g := g
			handles = append(handles, task.Go(fmt.Sprintf("spin%d", g), func(task *Task) error {
				for i := 0; i < 20; i++ {
					if _, err := task.Call("worker", "Spin", g); err != nil {
						return err
					}
				}
				return nil
			}))
		}
		// …while the main task imports modules dynamically.
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("dyn%d", i)
			spec := PackageSpec{
				Name: name,
				Vars: map[string]int{"v": 16},
				Funcs: map[string]Func{
					"F": func(t *Task, args ...Value) ([]Value, error) {
						return []Value{1}, nil
					},
				},
			}
			if err := task.ImportDynamic(spec); err != nil {
				return err
			}
			if _, err := task.Call(name, "F"); err != nil {
				return err
			}
		}
		for _, h := range handles {
			if err := h.Join(task); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
