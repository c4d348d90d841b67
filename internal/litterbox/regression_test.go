package litterbox_test

// Regression tests for the isolation bugs the adversarial probe engine
// (internal/probe) flushed out: a stale per-worker Prolog cache after a
// dynamic import, a permanently poisoned nesting pair after a transient
// backend failure, an Epilog that kept switching on an aborted worker,
// and MPK key exhaustion under dynamic imports.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mpk"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
)

// twoEnclSpecs declares e1 over main (wide) and e2 over lib (narrow,
// both its view and its categories inside e1's), so a nested
// e1 -> e2 Prolog installs e2's environment directly.
func twoEnclSpecs() []litterbox.EnclosureSpec {
	return []litterbox.EnclosureSpec{
		{ID: 1, Name: "e1", Pkg: "main", Policy: litterbox.Policy{
			Mods: map[string]litterbox.AccessMod{"secrets": litterbox.ModR},
			Cats: kernel.CatProc | kernel.CatFile,
		}},
		{ID: 2, Name: "e2", Pkg: "lib", Policy: litterbox.Policy{
			Mods: map[string]litterbox.AccessMod{},
			Cats: kernel.CatProc,
		}},
	}
}

// addDyn registers a fresh dynamic module and imports it into the given
// environments.
func addDyn(t *testing.T, f *fixture, lb *litterbox.LitterBox, name string, visibleTo ...*litterbox.Env) error {
	t.Helper()
	p := &pkggraph.Package{Name: name, Funcs: []string{"f"}, Vars: map[string]int{"v": 64}}
	if err := lb.Graph().AddIncremental(p); err != nil {
		t.Fatalf("AddIncremental(%s): %v", name, err)
	}
	pl, err := f.img.PlaceDynamic(p)
	if err != nil {
		t.Fatalf("PlaceDynamic(%s): %v", name, err)
	}
	return lb.AddDynamicPackage(f.cpu, p, pl.Sections(), visibleTo)
}

// TestPrologCacheFlushedByDynamicImport is the stale-EnvCache
// regression: e2 is more restrictive than e1, so a worker's cache
// resolves e1 -> e2 to e2's own environment. A dynamic import into e2
// then grows e2 beyond e1 — the cached target would now hand a nested
// entry from e1 access to the module that e1 itself never had. The view
// epoch must flush the cache so the next Prolog resolves the
// intersection instead.
func TestPrologCacheFlushedByDynamicImport(t *testing.T) {
	for name := range backends(newFixtureWithDecls(t, []string{"e1:main", "e2:lib"})) {
		t.Run(name, func(t *testing.T) {
			f := newFixtureWithDecls(t, []string{"e1:main", "e2:lib"})
			lb := f.initWith(t, backends(f)[name], twoEnclSpecs()...)
			if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
				t.Fatal(err)
			}
			cache := litterbox.NewEnvCache()
			tok1, tok2 := f.img.Enclosures[0].Token, f.img.Enclosures[1].Token

			env1, err := lb.PrologWith(f.cpu, lb.Trusted(), 1, tok1, cache)
			if err != nil {
				t.Fatal(err)
			}
			// Prime the cache: e2 is more restrictive, entered directly.
			nested, err := lb.PrologWith(f.cpu, env1, 2, tok2, cache)
			if err != nil {
				t.Fatal(err)
			}
			e2base, _ := lb.EnvForEnclosure(2)
			if nested != e2base {
				t.Fatalf("pre-import nested target = %s, want e2's own environment", nested.Name)
			}
			if err := lb.Epilog(f.cpu, nested, env1, 2, tok2); err != nil {
				t.Fatal(err)
			}

			// The import grows e2's view beyond e1's.
			if err := addDyn(t, f, lb, "dynmod", e2base); err != nil {
				t.Fatalf("AddDynamicPackage: %v", err)
			}
			if e2base.ModOf("dynmod") != litterbox.ModRWX {
				t.Fatalf("import did not extend e2's view")
			}

			// The cached e1 -> e2 resolution is now an escalation; the
			// flushed cache must produce the intersection, which excludes
			// the module.
			nested2, err := lb.PrologWith(f.cpu, env1, 2, tok2, cache)
			if err != nil {
				t.Fatal(err)
			}
			if nested2 == e2base {
				t.Fatalf("stale cache: nested entry still installs e2's full environment after the import")
			}
			if got := nested2.ModOf("dynmod"); got != litterbox.ModU {
				t.Fatalf("nested env sees dynmod at %v; e1 never had it", got)
			}
			if got := nested2.ModOf("lib"); got != litterbox.ModRWX {
				t.Fatalf("intersection lost lib (%v)", got)
			}
		})
	}
}

// flakyBackend fails its first CreateEnv calls, then behaves normally —
// the transient key-pressure/table-exhaustion shape.
type flakyBackend struct {
	litterbox.Backend
	failures int
}

func (b *flakyBackend) CreateEnv(env *litterbox.Env) error {
	if b.failures > 0 {
		b.failures--
		return fmt.Errorf("flaky: transient backend failure")
	}
	return b.Backend.CreateEnv(env)
}

// TestNestingPairRetriesAfterTransientFailure is the poisoned-pair
// regression: a CreateEnv failure while materialising an intersection
// must not be remembered forever — the next Prolog of the same
// (from, enclosure) pair retries and succeeds.
func TestNestingPairRetriesAfterTransientFailure(t *testing.T) {
	f := newFixtureWithDecls(t, []string{"e1:main", "e2:lib"})
	specs := twoEnclSpecs()
	// Disjoint categories force an intersection env for e1 -> e2 (e2's
	// view is inside e1's, but its categories are not).
	specs[1].Policy.Cats = kernel.CatNet
	flaky := &flakyBackend{Backend: litterbox.NewBaseline(), failures: 1}
	lb := f.initWith(t, flaky, specs...)
	if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
		t.Fatal(err)
	}
	tok1, tok2 := f.img.Enclosures[0].Token, f.img.Enclosures[1].Token
	env1, err := lb.Prolog(f.cpu, lb.Trusted(), 1, tok1)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := lb.Prolog(f.cpu, env1, 2, tok2); err == nil {
		t.Fatal("first nested Prolog should see the transient failure")
	}
	nested, err := lb.Prolog(f.cpu, env1, 2, tok2)
	if err != nil {
		t.Fatalf("retry after transient failure: %v (nesting pair poisoned)", err)
	}
	if nested.Trusted || nested.ModOf("secrets") != litterbox.ModU {
		t.Fatalf("retried intersection has wrong shape: %s", nested.Name)
	}
}

// TestEpilogRefusesAbortedWorker is the Epilog-asymmetry regression:
// after a fault aborts a worker, Epilog must refuse to keep switching
// environments on the way out, exactly as Prolog refuses to enter.
func TestEpilogRefusesAbortedWorker(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewMPK(mpk.NewUnit(f.space)))
	if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
		t.Fatal(err)
	}
	token := f.img.Enclosures[0].Token
	env, err := lb.Prolog(f.cpu, lb.Trusted(), 1, token)
	if err != nil {
		t.Fatal(err)
	}
	// secrets is read-only in e1: the write faults and aborts.
	sec := f.img.Packages["secrets"].Data
	var flt *litterbox.Fault
	if err := lb.CheckWrite(f.cpu, env, sec.Base, 8); !errors.As(err, &flt) {
		t.Fatalf("write to read-only secrets: %v, want fault", err)
	}
	if err := lb.Epilog(f.cpu, env, lb.Trusted(), 1, token); !errors.Is(err, litterbox.ErrAborted) {
		t.Fatalf("Epilog on aborted worker: %v, want ErrAborted", err)
	}
}

// TestMPKKeyExhaustionFromDynamicImports drives dynamic imports until
// the 16-key space runs dry and checks the failure mode: a clean error
// naming pkey_alloc, a rolled-back view (the failed module is visible
// nowhere), and a framework that keeps working afterwards.
func TestMPKKeyExhaustionFromDynamicImports(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewMPK(mpk.NewUnit(f.space)))
	if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
		t.Fatal(err)
	}
	env1, err := lb.EnvForEnclosure(1)
	if err != nil {
		t.Fatal(err)
	}

	var exhaustedAt string
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("dynmod%d", i)
		if err := addDyn(t, f, lb, name, env1); err != nil {
			if !strings.Contains(err.Error(), "pkey_alloc") {
				t.Fatalf("exhaustion surfaced as %v, want a pkey_alloc error", err)
			}
			exhaustedAt = name
			break
		}
	}
	if exhaustedAt == "" {
		t.Fatal("20 dynamic imports never exhausted the 16-key space")
	}
	if got := env1.ModOf(exhaustedAt); got != litterbox.ModU {
		t.Fatalf("failed import left %s visible at %v", exhaustedAt, got)
	}

	// The framework still works: enter, touch an in-view package, leave.
	token := f.img.Enclosures[0].Token
	env, err := lb.Prolog(f.cpu, lb.Trusted(), 1, token)
	if err != nil {
		t.Fatalf("Prolog after exhaustion: %v", err)
	}
	lib := f.img.Packages["lib"].Data
	if err := lb.CheckRead(f.cpu, env, lib.Base, 8); err != nil {
		t.Fatalf("read after exhaustion: %v", err)
	}
	if err := lb.Epilog(f.cpu, env, lb.Trusted(), 1, token); err != nil {
		t.Fatalf("Epilog after exhaustion: %v", err)
	}
}

// TestDynamicImportTextIsGadgetScanned pins the import-time text scan:
// before the fix, MPK's MapDynamicPackage tagged and mapped imported
// text without the WRPKRU scan that Setup applies to load-time text,
// so a module poisoned after link could carry the escalation
// instruction straight past the gate. The scan must reject the module,
// and the rejection must roll back cleanly (keys, view) so later
// imports still work.
func TestDynamicImportTextIsGadgetScanned(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewMPK(mpk.NewUnit(f.space)))
	if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
		t.Fatal(err)
	}
	env, err := lb.EnvForEnclosure(1)
	if err != nil {
		t.Fatal(err)
	}

	// A clean module imports fine (the scan is not simply rejecting
	// all dynamic text).
	if err := addDyn(t, f, lb, "dynclean", env); err != nil {
		t.Fatalf("clean import: %v", err)
	}

	// A poisoned module: placed like any dynamic package, then WRPKRU
	// planted in its text before the import call — exactly what Setup
	// rejects at load time.
	p := &pkggraph.Package{Name: "dynevil", Funcs: []string{"f"}, Vars: map[string]int{"v": 64}}
	if err := lb.Graph().AddIncremental(p); err != nil {
		t.Fatal(err)
	}
	pl, err := f.img.PlaceDynamic(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.space.WriteAt(pl.Text.Base+77, mpk.WRPKRUOpcode); err != nil {
		t.Fatal(err)
	}
	err = lb.AddDynamicPackage(f.cpu, p, pl.Sections(), []*litterbox.Env{env})
	if !errors.Is(err, mpk.ErrWRPKRUFound) {
		t.Fatalf("poisoned import: got %v, want ErrWRPKRUFound", err)
	}
	if got := env.ModOf("dynevil"); got != litterbox.ModU {
		t.Fatalf("rejected module left visible at %v", got)
	}

	// The rejection rolled back: the key space and view still accept a
	// fresh clean import... but the poisoned text is still mapped, so
	// the full re-scan keeps rejecting until it is gone.
	if err := addDyn(t, f, lb, "dynclean2", env); !errors.Is(err, mpk.ErrWRPKRUFound) {
		t.Fatalf("import with poisoned text still mapped: %v", err)
	}
	if err := f.space.WriteAt(pl.Text.Base+77, []byte{0x10, 0x11, 0x12}); err != nil {
		t.Fatal(err)
	}
	if err := addDyn(t, f, lb, "dynclean3", env); err != nil {
		t.Fatalf("clean import after scrubbing: %v", err)
	}
}
