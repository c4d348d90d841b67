package pyfront

import (
	"errors"
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/litterbox"
)

// TestSeparatedExperimentFastAndNoSwitches: the future-work layout
// performs like the decoupled simulation (init-dominated, ~1.5×) with
// zero trusted switches.
func TestSeparatedExperimentFastAndNoSwitches(t *testing.T) {
	r, err := RunExperiment(core.VTX, Separated)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("separated: %.2fx, %d switches, init %.1f%% of overhead",
		r.Slowdown, r.Switches, r.InitShare*100)
	if r.Switches != 0 {
		t.Errorf("separated metadata needed %d switches", r.Switches)
	}
	if r.Slowdown < 1.1 || r.Slowdown > 1.8 {
		t.Errorf("slowdown %.2fx, expected decoupled-like ~1.5x", r.Slowdown)
	}
}

// TestSeparatedKeepsSecretReadOnly is the security property the
// Decoupled *simulation* sacrifices and Separated restores: with the
// header detached, the secret's data stays read-only in the enclosure,
// so a tampering matplotlib faults.
func TestSeparatedKeepsSecretReadOnly(t *testing.T) {
	for _, kind := range []core.BackendKind{core.MPK, core.VTX} {
		t.Run(kind.String(), func(t *testing.T) {
			in := NewInterp(Separated)
			b := core.NewBuilder(kind)
			b.Package(core.PackageSpec{Name: MainMod, Imports: []string{SecretMod, PlotMod}})
			b.Package(core.PackageSpec{Name: SecretMod, Vars: map[string]int{"data": HeaderSize + 64}})
			b.Package(core.PackageSpec{Name: MetaPkg, Vars: map[string]int{"secret_header": SepHeaderSize}})
			b.Package(core.PackageSpec{Name: PlotMod, Funcs: map[string]core.Func{
				"tamper": func(t *core.Task, args ...core.Value) ([]core.Value, error) {
					obj := args[0].(PyObject)
					in.Incref(t, obj)            // metadata write: allowed (meta arena is RW)
					t.Store8(obj.Ref.Addr, 0xFF) // data write: must fault
					return nil, nil
				},
			}})
			b.Enclosure("plot", MainMod, PolicySeparated, func(t *core.Task, args ...core.Value) ([]core.Value, error) {
				return t.Call(PlotMod, "tamper", args...)
			}, PlotMod)
			prog, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			err = prog.Run(func(task *core.Task) error {
				data, _ := prog.VarRef(SecretMod, "data")
				hdr, _ := prog.VarRef(MetaPkg, "secret_header")
				payload := data.Slice(HeaderSize, 64)
				obj := PyObject{Ref: payload, Meta: hdr}
				task.Store64(hdr.Addr+offRefcount, 1)
				_, err := prog.MustEnclosure("plot").Call(task, obj)
				return err
			})
			var fault *litterbox.Fault
			if !errors.As(err, &fault) || fault.Op != "write" {
				t.Fatalf("tampering with read-only secret data did not fault: %v", err)
			}
		})
	}
}

// TestDecoupledSimulationSacrificesIntegrity documents the contrast:
// under the §6.4 decoupled *simulation* (secret mapped RW) the same
// tampering succeeds — which is exactly why the paper calls for real
// data/metadata separation.
func TestDecoupledSimulationSacrificesIntegrity(t *testing.T) {
	in := NewInterp(Decoupled)
	b := core.NewBuilder(core.MPK)
	b.Package(core.PackageSpec{Name: MainMod, Imports: []string{SecretMod, PlotMod}})
	b.Package(core.PackageSpec{Name: SecretMod, Vars: map[string]int{"data": HeaderSize + 64}})
	b.Package(core.PackageSpec{Name: PlotMod, Funcs: map[string]core.Func{
		"tamper": func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			obj := args[0].(PyObject)
			in.Incref(t, obj)
			t.Store8(obj.Payload().Addr, 0xFF) // RW-mapped: regrettably succeeds
			return nil, nil
		},
	}})
	b.Enclosure("plot", MainMod, PolicyDecoupled, func(t *core.Task, args ...core.Value) ([]core.Value, error) {
		return t.Call(PlotMod, "tamper", args...)
	}, PlotMod)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	err = prog.Run(func(task *core.Task) error {
		data, _ := prog.VarRef(SecretMod, "data")
		obj := PyObject{Ref: data}
		task.Store64(data.Addr+offRefcount, 1)
		_, err := prog.MustEnclosure("plot").Call(task, obj)
		return err
	})
	if err != nil {
		t.Fatalf("decoupled simulation unexpectedly enforced integrity: %v", err)
	}
}

func TestSeparatedObjectLifecycle(t *testing.T) {
	in := NewInterp(Separated)
	b := core.NewBuilder(core.MPK)
	b.Package(core.PackageSpec{Name: "py/app", Imports: []string{"py/mod", MetaPkg}})
	b.Package(core.PackageSpec{Name: MetaPkg})
	b.Package(core.PackageSpec{Name: "py/mod", Imports: []string{MetaPkg}, Funcs: map[string]core.Func{
		"run": func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			a := in.NewObject(t, []byte("alpha"))
			bObj := in.NewObject(t, []byte("beta"))
			if refcount(t, a) != 1 {
				return nil, errFmt("refcount")
			}
			if string(t.ReadBytes(a.Payload())) != "alpha" {
				return nil, errFmt("payload")
			}
			if a.Meta.IsZero() {
				return nil, errFmt("header not detached")
			}
			if t.Prog().Heap().OwnerOf(a.Meta.Addr) != MetaPkg {
				return nil, errFmt("header not in %s arena", MetaPkg)
			}
			if t.Prog().Heap().OwnerOf(a.Ref.Addr) != "py/mod" {
				return nil, errFmt("payload not in module arena")
			}
			in.Decref(t, a)
			if freed := in.Collect(t, "py/mod"); freed != 1 {
				return nil, errFmt("freed %d", freed)
			}
			// Survivor unharmed.
			if string(t.ReadBytes(bObj.Payload())) != "beta" {
				return nil, errFmt("survivor corrupted")
			}
			return nil, nil
		},
	}})
	b.Enclosure("e", "py/app", MetaPkg+":RW; sys:none",
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call("py/mod", "run")
		}, "py/mod")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	err = prog.Run(func(task *core.Task) error {
		_, err := prog.MustEnclosure("e").Call(task)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.Switches != 0 {
		t.Fatalf("separated lifecycle took %d switches", in.Switches)
	}
}
