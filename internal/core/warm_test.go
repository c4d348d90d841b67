package core

// Warm-enclosure snapshot tests: template capture, clone fidelity,
// pool recycling, and — the security property recycling depends on —
// tenant isolation: nothing one tenant writes into a recycled
// instance may be observable by the next tenant. CI runs this file
// under -race.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mem"
)

// warmBackends is the full backend matrix including the CHERI
// projection — recycling must scrub on every enforcement mechanism.
var warmBackends = []BackendKind{Baseline, MPK, VTX, CHERI}

func buildWarmProgram(t *testing.T, kind BackendKind, opts ...Option) *Program {
	t.Helper()
	b := NewBuilder(kind, opts...)
	b.Package(PackageSpec{
		Name: "main", Imports: []string{"lib"},
		Vars:   map[string]int{"secret": 64},
		Origin: "app",
	})
	b.Package(PackageSpec{
		Name: "lib", Origin: "public",
		Funcs: map[string]Func{
			"Echo": func(t *Task, args ...Value) ([]Value, error) {
				return []Value{args[0].(int) + 1}, nil
			},
		},
	})
	b.Enclosure("work", "main", "sys:none",
		func(t *Task, args ...Value) ([]Value, error) {
			return t.Call("lib", "Echo", args...)
		}, "lib")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestSnapshotCloneRuns: a template clone runs the enclosure and
// computes what the source program computes.
func TestSnapshotCloneRuns(t *testing.T) {
	for _, kind := range warmBackends {
		t.Run(kind.String(), func(t *testing.T) {
			prog := buildWarmProgram(t, kind)
			tmpl, err := prog.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			inst, err := tmpl.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			if !inst.IsSnapshotInstance() {
				t.Fatal("clone does not identify as a snapshot instance")
			}
			for _, p := range []*Program{prog, inst} {
				var got int
				if err := p.Run(func(task *Task) error {
					out, err := p.MustEnclosure("work").Call(task, 41)
					if err != nil {
						return err
					}
					got = out[0].(int)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if got != 42 {
					t.Fatalf("work returned %d, want 42", got)
				}
			}
		})
	}
}

// TestRecycleTenantIsolation: tenant A fills a package variable and a
// heap allocation with recognisable patterns; after Recycle, tenant B
// must read the template-initial variable content and a scrubbed heap
// — on all four backends. The heap allocator is rebuilt from the
// template, so B's first allocation lands exactly where A's did,
// making the probe address-exact.
func TestRecycleTenantIsolation(t *testing.T) {
	for _, kind := range warmBackends {
		t.Run(kind.String(), func(t *testing.T) {
			prog := buildWarmProgram(t, kind)
			tmpl, err := prog.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			// The expected post-recycle variable content comes from a
			// fresh clone, not an assumption of all-zeroes.
			fresh, err := tmpl.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			var want []byte
			freshVar, err := fresh.VarRef("main", "secret")
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Run(func(task *Task) error {
				want = task.ReadBytes(freshVar)
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			instA, err := tmpl.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			varA, err := instA.VarRef("main", "secret")
			if err != nil {
				t.Fatal(err)
			}
			secret := bytes.Repeat([]byte{0xA5}, 64)
			heapPat := bytes.Repeat([]byte{0x5A}, 256)
			var heapA mem.Addr
			if err := instA.Run(func(task *Task) error {
				task.WriteBytes(varA, secret)
				if got := task.ReadBytes(varA); !bytes.Equal(got, secret) {
					t.Error("tenant A's own write not visible to A")
				}
				r := task.Alloc(256)
				heapA = r.Addr
				task.WriteBytes(r, heapPat)
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			instB, err := tmpl.Recycle(instA)
			if err != nil {
				t.Fatal(err)
			}
			varB, err := instB.VarRef("main", "secret")
			if err != nil {
				t.Fatal(err)
			}
			if varB.Addr != varA.Addr {
				t.Fatalf("var moved across recycle: %#x -> %#x", varA.Addr, varB.Addr)
			}
			if err := instB.Run(func(task *Task) error {
				if got := task.ReadBytes(varB); !bytes.Equal(got, want) {
					t.Errorf("tenant B reads %x in main.secret, want template content %x", got, want)
				}
				r := task.Alloc(256)
				if r.Addr != heapA {
					t.Fatalf("allocator not reset: B's span at %#x, A's at %#x", r.Addr, heapA)
				}
				if got := task.ReadBytes(r); bytes.Contains(got, []byte{0x5A, 0x5A, 0x5A, 0x5A}) {
					t.Errorf("tenant A's heap pattern visible to tenant B: %x", got[:16])
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			// The recycled instance still enforces and computes.
			var got int
			if err := instB.Run(func(task *Task) error {
				out, err := instB.MustEnclosure("work").Call(task, 1)
				if err != nil {
					return err
				}
				got = out[0].(int)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got != 2 {
				t.Fatalf("recycled work returned %d, want 2", got)
			}
		})
	}
}

// TestInstanceIgnoresSourceWritesAfterSnapshot: the engine's cold
// fallback keeps running the captured source, so what the source
// writes after Snapshot must not reach instances made afterwards. The
// template's memory is a frozen copy-on-write clone of the source's,
// not the source's live space.
func TestInstanceIgnoresSourceWritesAfterSnapshot(t *testing.T) {
	for _, kind := range warmBackends {
		t.Run(kind.String(), func(t *testing.T) {
			prog := buildWarmProgram(t, kind)
			tmpl, err := prog.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			readSecret := func(p *Program) []byte {
				ref, err := p.VarRef("main", "secret")
				if err != nil {
					t.Fatal(err)
				}
				var got []byte
				if err := p.Run(func(task *Task) error {
					got = task.ReadBytes(ref)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				return got
			}
			first, err := tmpl.Instantiate() // the spare validation instance
			if err != nil {
				t.Fatal(err)
			}
			want := readSecret(first)

			srcVar, err := prog.VarRef("main", "secret")
			if err != nil {
				t.Fatal(err)
			}
			if err := prog.Run(func(task *Task) error {
				task.WriteBytes(srcVar, bytes.Repeat([]byte{0xA5}, 64))
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			second, err := tmpl.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			if got := readSecret(second); !bytes.Equal(got, want) {
				t.Fatalf("instance made after the source's write reads %x, want the template's %x", got, want)
			}
		})
	}
}

// TestSnapshotRefusesLiveFDs: capture requires a quiescent world — a
// program holding an open descriptor cannot be templated, because the
// clone would alias live kernel object state.
func TestSnapshotRefusesLiveFDs(t *testing.T) {
	prog := buildWarmProgram(t, MPK)
	if err := prog.Run(func(task *Task) error {
		p := task.NewString("/leak")
		fd, errno := task.Syscall(kernel.NrOpen, uint64(p.Addr), p.Size, uint64(kernel.OCreat|kernel.OWronly))
		if errno != kernel.OK {
			return fmt.Errorf("open: %v", errno)
		}
		_ = fd // deliberately left open
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Snapshot(); !errors.Is(err, kernel.ErrLiveFDs) {
		t.Fatalf("Snapshot with open fd: err = %v, want ErrLiveFDs", err)
	}
}

// TestWarmPoolRecyclesInstances: Get/Put cycles hit the free-list,
// over-capacity Puts discard, and Close drains.
func TestWarmPoolRecyclesInstances(t *testing.T) {
	prog := buildWarmProgram(t, MPK)
	tmpl, err := prog.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pool := tmpl.NewPool(1)
	a, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(a) // recycles into the free slot
	pool.Put(b) // pool full: discarded
	c, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("Get did not return the recycled program: Recycle resets the instance in place and keeps its *Program")
	}
	st := pool.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Discards != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 1 discard", st)
	}
	// Only the kept instance was recycled: a full pool discards without
	// paying the recycle.
	_, recycles := tmpl.Stats()
	if recycles != 1 {
		t.Fatalf("template recycles = %d, want 1", recycles)
	}
	// Close drains the free-list; a later Get still works but must
	// instantiate fresh (counted as a miss), and Put discards.
	pool.Put(c)
	pool.Close()
	missesBefore := pool.Stats().Misses
	if _, err := pool.Get(); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Misses != missesBefore+1 {
		t.Fatal("Get after Close served from the drained free-list")
	}
}

// buildTenantProgram is the world the every-layer isolation tests
// recycle: "outer" nests "inner" (materialising an intersection
// environment), "plot" triggers a dynamic import of "plugin" from
// inside its environment, and "peek" loads a word at an address passed
// in — it can see libB but not vault.
func buildTenantProgram(t *testing.T, kind BackendKind) *Program {
	t.Helper()
	b := NewBuilder(kind)
	b.Package(PackageSpec{Name: "main", Imports: []string{"libA", "libB", "loader"},
		Vars: map[string]int{"secret": 64}, Origin: "app"})
	b.Package(PackageSpec{Name: "libA", Vars: map[string]int{"state": 16}})
	b.Package(PackageSpec{Name: "libB", Vars: map[string]int{"state": 16}})
	b.Package(PackageSpec{Name: "vault", Vars: map[string]int{"key": 16}})
	b.Package(PackageSpec{Name: "loader", Funcs: map[string]Func{
		"Load": func(t *Task, args ...Value) ([]Value, error) {
			if err := t.ImportDynamic(dynSpec("plugin")); err != nil {
				return nil, err
			}
			return t.Call("plugin", "Render")
		},
	}})
	b.Enclosure("outer", "main", "sys:file,io",
		func(t *Task, args ...Value) ([]Value, error) {
			return t.prog.MustEnclosure("inner").Call(t)
		}, "libA", "libB")
	b.Enclosure("inner", "main", "sys:net,io",
		func(*Task, ...Value) ([]Value, error) { return nil, nil }, "libB")
	b.Enclosure("plot", "main", "sys:none",
		func(t *Task, args ...Value) ([]Value, error) {
			return t.Call("loader", "Load")
		}, "loader")
	b.Enclosure("peek", "main", "sys:none",
		func(t *Task, args ...Value) ([]Value, error) {
			return []Value{t.Load64(args[0].(mem.Addr))}, nil
		}, "libB")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// tenantView is what one tenant's script observes. Two tenants that
// start from the same state observe the same view.
type tenantView struct {
	secret []byte   // main.secret before the tenant writes it
	heap   mem.Addr // the tenant's first heap allocation
	span   mem.Addr // base of the heap span holding it
	leak   bool     // that allocation held a previous tenant's pattern
	random []byte   // getrandom's first 16 bytes
	fd     uint64   // the descriptor open returned
	envs   int      // environments after the nested call
	key    int      // MPK key the dynamic import got (-1 elsewhere)
}

// runTenant runs the tenant script on prog: heap allocation, getrandom,
// a file write, a transfer of the template span at spanBase into libB
// (pkey_mprotect on MPK) that peek may then read, a nested enclosure
// call, and a dynamic import from inside an enclosure — and finally a
// read of vault.key from peek, which faults (aborting the program) on
// every enforcing backend.
func runTenant(t *testing.T, prog *Program, spanBase mem.Addr) tenantView {
	t.Helper()
	var v tenantView
	secret, err := prog.VarRef("main", "secret")
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Run(func(task *Task) error {
		v.secret = task.ReadBytes(secret)
		task.WriteBytes(secret, bytes.Repeat([]byte{0xA5}, 64))
		r := task.Alloc(256)
		v.heap, v.span = r.Addr, prog.space.SectionAt(r.Addr).Base
		v.leak = bytes.Contains(task.ReadBytes(r), []byte{0x5A, 0x5A, 0x5A, 0x5A})
		task.WriteBytes(r, bytes.Repeat([]byte{0x5A}, 256))
		if _, errno := task.Syscall(kernel.NrGetrandom, uint64(r.Addr), 16); errno != kernel.OK {
			return fmt.Errorf("getrandom: %v", errno)
		}
		v.random = task.ReadBytes(Ref{Addr: r.Addr, Size: 16})
		path := task.NewString("/tenant")
		fd, errno := task.Syscall(kernel.NrOpen, uint64(path.Addr), path.Size, uint64(kernel.OCreat|kernel.OWronly))
		if errno != kernel.OK {
			return fmt.Errorf("open: %v", errno)
		}
		v.fd = fd
		if _, errno := task.Syscall(kernel.NrWrite, fd, uint64(r.Addr), 16); errno != kernel.OK {
			return fmt.Errorf("write: %v", errno)
		}
		if _, errno := task.Syscall(kernel.NrClose, fd); errno != kernel.OK {
			return fmt.Errorf("close: %v", errno)
		}
		if err := prog.TransferSpan(prog.Kernel().SpanSection(spanBase), "libB"); err != nil {
			return err
		}
		if _, err := prog.MustEnclosure("peek").Call(task, spanBase); err != nil {
			return err
		}
		if _, err := prog.MustEnclosure("outer").Call(task); err != nil {
			return err
		}
		v.envs = len(prog.LitterBox().EnvsSnapshot())
		if _, err := prog.MustEnclosure("plot").Call(task); err != nil {
			return err
		}
		v.key = -1
		if b, ok := prog.LitterBox().Backend().(*litterbox.MPKBackend); ok {
			v.key = b.KeyOf("plugin")
		}
		return nil
	}); err != nil {
		t.Fatalf("tenant script: %v", err)
	}
	vault, err := prog.VarRef("vault", "key")
	if err != nil {
		t.Fatal(err)
	}
	err = prog.Run(func(task *Task) error {
		_, err := prog.MustEnclosure("peek").Call(task, vault.Addr)
		return err
	})
	if _, aborted := prog.Fault(); aborted != (prog.Backend() != Baseline) || (err != nil) != aborted {
		t.Fatalf("peek at vault.key: err %v, aborted %v", err, aborted)
	}
	return v
}

// checkTemplateState asserts that prog shows none of the tenant
// script's effects: no fault, zero counters, no dynamic import in any
// table, no file, the template span back in the heap pool, and the
// template's environment count.
func checkTemplateState(t *testing.T, what string, prog *Program, spanBase mem.Addr, envs int) {
	t.Helper()
	if f, aborted := prog.Fault(); aborted {
		t.Errorf("%s: aborted by %v", what, f)
	}
	if c := prog.Counters().Snapshot(); c != (hw.CounterSnapshot{}) && prog.IsSnapshotInstance() {
		t.Errorf("%s: counters %+v, want zero", what, c)
	}
	if prog.Graph().Has("plugin") || prog.Image().Layout("plugin") != nil || prog.hasPackageFuncs("plugin") ||
		prog.LitterBox().MetaOf("plugin") != -1 {
		t.Errorf("%s: the dynamic import is visible", what)
	}
	if m := prog.MustEnclosure("plot").Env().ModOf("plugin"); m != litterbox.ModU {
		t.Errorf("%s: plot's view grants plugin %v", what, m)
	}
	if b, ok := prog.LitterBox().Backend().(*litterbox.MPKBackend); ok && b.KeyOf("plugin") != -1 {
		t.Errorf("%s: plugin still holds key %d", what, b.KeyOf("plugin"))
	}
	if _, err := prog.FS().ReadFile("/tenant"); err == nil {
		t.Errorf("%s: the tenant's file exists", what)
	}
	if sec := prog.Kernel().SpanSection(spanBase); sec == nil || sec.Pkg != kernel.HeapOwner {
		t.Errorf("%s: template span %v not back in the heap pool", what, sec)
	}
	if n := len(prog.LitterBox().EnvsSnapshot()); n != envs {
		t.Errorf("%s: %d environments, want the template's %d", what, n, envs)
	}
	if prog.Backend() != Baseline && !peekFaults(prog, spanBase) {
		t.Errorf("%s: peek reads the template span: its protection tag was not reset", what)
	}
}

// peekFaults reports whether peek faults loading addr. It runs on a
// worker of its own, so the fault aborts only that worker's domain.
func peekFaults(prog *Program, addr mem.Addr) (faulted bool) {
	task := prog.NewTaskOn(prog.NewWorker("peek"), "peek")
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*litterbox.Fault); !ok {
				panic(r)
			}
			faulted = true
		}
	}()
	_, err := prog.MustEnclosure("peek").Call(task, addr)
	return err != nil
}

// TestRecycleResetsEveryLayer: tenant A allocates, draws randomness,
// writes a file, transfers a template heap span (pkey_mprotect on MPK),
// materialises an intersection environment, dynamically imports a
// package from inside an enclosure, and finally faults. After Recycle
// — which hands back the same *Program — tenant B sees template state
// on every axis, and replaying A's script observes exactly what A did:
// the same heap address, random bytes, descriptor number, environment
// IDs and protection key. The source program and the template never
// see any of it.
func TestRecycleResetsEveryLayer(t *testing.T) {
	for _, kind := range warmBackends {
		t.Run(kind.String(), func(t *testing.T) {
			prog := buildTenantProgram(t, kind)
			span, err := prog.NewSpan(4 * mem.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			envs := len(prog.LitterBox().EnvsSnapshot())
			tmpl, err := prog.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			inst, err := tmpl.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			a := runTenant(t, inst, span.Base)
			if a.leak || a.envs <= envs {
				t.Fatalf("tenant A: leak %v, %d environments after nesting (template %d)", a.leak, a.envs, envs)
			}
			recycled, err := tmpl.Recycle(inst)
			if err != nil {
				t.Fatal(err)
			}
			if recycled != inst {
				t.Fatal("Recycle returned a different *Program")
			}
			checkTemplateState(t, "recycled", inst, span.Base, envs)
			if (inst.Kernel().SpanSection(a.span) == nil) != (prog.Kernel().SpanSection(a.span) == nil) {
				t.Errorf("the span registry kept tenant A's heap span at %#x", a.span)
			}
			if b := runTenant(t, inst, span.Base); !reflect.DeepEqual(a, b) {
				t.Errorf("tenant B observed %+v, tenant A %+v", b, a)
			}
			checkTemplateState(t, "source program", prog, span.Base, envs)
			fresh, err := tmpl.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			checkTemplateState(t, "fresh instance", fresh, span.Base, envs)
		})
	}
}

// TestRecycleRacesSourceImport: the engine's cold fallback runs jobs on
// the captured source program, so the source may dynamically import
// while instances are made, nest enclosures, import, and are recycled.
// Run under -race: every side copies the tables it shares before
// writing, so none observes another.
func TestRecycleRacesSourceImport(t *testing.T) {
	for _, kind := range warmBackends {
		t.Run(kind.String(), func(t *testing.T) {
			prog := buildTenantProgram(t, kind)
			span, err := prog.NewSpan(4 * mem.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			envs := len(prog.LitterBox().EnvsSnapshot())
			tmpl, err := prog.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- prog.Run(func(task *Task) error {
					_, err := prog.MustEnclosure("plot").Call(task)
					return err
				})
			}()
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 4; i++ {
						inst, err := tmpl.Instantiate()
						if err != nil {
							errs <- err
							return
						}
						if err := inst.Run(func(task *Task) error {
							if _, err := inst.MustEnclosure("outer").Call(task); err != nil {
								return err
							}
							_, err := inst.MustEnclosure("plot").Call(task)
							return err
						}); err != nil {
							errs <- err
							return
						}
						if _, err := tmpl.Recycle(inst); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if !prog.Graph().Has("plugin") || prog.Image().Layout("plugin") == nil || !prog.hasPackageFuncs("plugin") {
				t.Fatal("the source program lost its own dynamic import")
			}
			fresh, err := tmpl.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			checkTemplateState(t, "instance made after the source's import", fresh, span.Base, envs)
		})
	}
}

// TestRecycleAllocs pins the clean recycle: with every layer reset in
// place and every shared table re-pointed, recycling an instance whose
// tenant changed nothing allocates nothing on any backend.
func TestRecycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under the race detector")
	}
	for _, kind := range warmBackends {
		t.Run(kind.String(), func(t *testing.T) {
			tmpl, err := buildWarmProgram(t, kind).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			inst, err := tmpl.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			recycle := func() {
				if _, err := tmpl.Recycle(inst); err != nil {
					t.Fatal(err)
				}
			}
			recycle()
			if allocs := testing.AllocsPerRun(100, recycle); allocs != 0 {
				t.Fatalf("clean Recycle allocates %.1f objects, want 0", allocs)
			}
		})
	}
}

// workerView is what one tenant observes on the worker it runs on.
type workerView struct {
	stale    kernel.Errno // close(3) before the tenant opens anything
	fd       uint64       // the descriptor open returned, left open
	faulted  bool         // peek at vault.key faulted
	clock    int64        // the worker's clock after the script
	counters hw.CounterSnapshot
}

// workerTenant runs a tenant script on worker w of prog: it opens a
// file and leaves it open, enters outer (which nests inner, so an
// intersection environment is materialised), dynamically imports from
// inside plot, and peeks at vault.key, which faults on every enforcing
// backend and aborts only w's fault domain.
func workerTenant(t *testing.T, prog *Program, w *WorkerCtx) workerView {
	t.Helper()
	var v workerView
	task := prog.NewTaskOn(w, "tenant")
	_, v.stale = task.Syscall(kernel.NrClose, 3)
	path := task.NewString("/tenant")
	fd, errno := task.Syscall(kernel.NrOpen, uint64(path.Addr), path.Size, uint64(kernel.OCreat|kernel.OWronly))
	if errno != kernel.OK {
		t.Fatalf("open: %v", errno)
	}
	v.fd = fd
	for _, name := range []string{"outer", "plot"} {
		if _, err := prog.MustEnclosure(name).Call(task); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	vault, err := prog.VarRef("vault", "key")
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*litterbox.Fault); !ok {
					panic(r)
				}
				v.faulted = true
			}
		}()
		if _, err := prog.MustEnclosure("peek").Call(task, vault.Addr); err != nil {
			v.faulted = true
		}
	}()
	if v.faulted != (prog.Backend() != Baseline) {
		t.Fatalf("peek at vault.key faulted: %v", v.faulted)
	}
	if f, aborted := prog.Fault(); aborted {
		t.Fatalf("the fault aborted the whole program (%v), not the worker's domain", f)
	}
	v.clock, v.counters = w.Clock().Now(), w.Counters().Snapshot()
	return v
}

// TestRecycledWorkerStartsFresh: the worker context a warm instance
// owns outlives its recycles, so a tenant's open descriptor, clock,
// counters, fault and environments must all be gone when the next
// tenant starts on it. That tenant observes exactly what a tenant on a
// fresh instance's fresh worker does. The worker's Prolog cache keeps
// its entries across a recycle only when the tenant left the
// environment table as it was born: an intersection or a dynamic
// import flushes it.
func TestRecycledWorkerStartsFresh(t *testing.T) {
	for _, kind := range warmBackends {
		t.Run(kind.String(), func(t *testing.T) {
			tmpl, err := buildTenantProgram(t, kind).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := tmpl.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			want := workerTenant(t, fresh, fresh.InstanceWorker("warm"))
			if want.stale != kernel.EBADF {
				t.Fatalf("close(3) on a fresh worker: %v, want EBADF", want.stale)
			}

			inst, err := tmpl.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			w := inst.InstanceWorker("warm")
			recycle := func() {
				t.Helper()
				if _, err := tmpl.Recycle(inst); err != nil {
					t.Fatal(err)
				}
				if inst.InstanceWorker("other") != w {
					t.Fatal("the recycle replaced the instance's worker")
				}
			}
			workerTenant(t, inst, w)
			recycle()
			if now := w.Clock().Now(); now != 0 {
				t.Errorf("recycled worker's clock reads %d, want 0", now)
			}
			if c := w.Counters().Snapshot(); c != (hw.CounterSnapshot{}) {
				t.Errorf("recycled worker's counters %+v, want zero", c)
			}
			if f, aborted := w.Domain().Aborted(); aborted {
				t.Errorf("recycled worker's domain is still aborted by %v", f)
			}
			_, misses := w.EnvCache().Stats()
			if got := workerTenant(t, inst, w); got != want {
				t.Errorf("tenant on the recycled worker observed %+v, on a fresh one %+v", got, want)
			}
			if _, m := w.EnvCache().Stats(); m == misses {
				t.Error("after a dynamic import, the recycled worker's first Prolog hit its cache")
			}

			// enter runs one tenant that enters name from the trusted
			// environment and returns its cache hits and misses.
			enter := func(name string) (hits, misses int64) {
				t.Helper()
				recycle()
				h0, m0 := w.EnvCache().Stats()
				if _, err := inst.MustEnclosure(name).Call(inst.NewTaskOn(w, name)); err != nil {
					t.Fatal(err)
				}
				h, m := w.EnvCache().Stats()
				return h - h0, m - m0
			}
			enter("inner")
			if hits, misses := enter("inner"); hits != 1 || misses != 0 {
				t.Errorf("entering inner after a tenant that did the same: %d hits, %d misses, want the cached entry", hits, misses)
			}
			enter("outer") // materialises the (outer, inner) intersection
			if _, misses := enter("outer"); misses != 2 {
				t.Errorf("entering outer after a tenant made an intersection: %d misses, want 2 (a flushed cache)", misses)
			}
		})
	}
}
