package litterbox_test

// Concurrency tests for the RCU-style env read path: lock-free readers
// racing snapshot publications (intersection materialisation, dynamic
// imports). Run under -race in CI.

import (
	"sync"
	"testing"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mpk"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
)

// twoEnclosures returns specs where neither enclosure's environment is
// more restrictive than the other (e2 writes secrets, e1 only reads),
// so a nested Prolog must materialise an intersection environment.
func twoEnclosures() []litterbox.EnclosureSpec {
	return []litterbox.EnclosureSpec{
		{
			ID: 1, Name: "e1", Pkg: "main",
			Policy: litterbox.Policy{
				Mods: map[string]litterbox.AccessMod{"secrets": litterbox.ModR},
				Cats: kernel.CatProc,
			},
		},
		{
			ID: 2, Name: "e2", Pkg: "lib",
			Policy: litterbox.Policy{
				Mods: map[string]litterbox.AccessMod{"secrets": litterbox.ModRW},
				Cats: kernel.CatProc,
			},
		},
	}
}

func TestSnapshotConcurrentReadersAndWriters(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewMPK(mpk.NewUnit(f.space)), twoEnclosures()...)

	env1, err := lb.EnvForEnclosure(1)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	// Readers: resolve envs and iterate the snapshot continuously.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				if _, err := lb.EnvForEnclosure(1 + i%2); err != nil {
					t.Error(err)
					return
				}
				for _, e := range lb.EnvsSnapshot() {
					_ = e.ModOf("lib")
				}
				if _, ok := lb.Env(litterbox.TrustedEnv); !ok {
					t.Error("trusted env vanished")
					return
				}
			}
		}()
	}
	// Writers: nested Prologs race to materialise the e1&e2 intersection
	// (one creator, the rest wait on the ready channel), each on its own
	// CPU and worker cache.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cpu := hw.NewCPU(f.clock)
			cache := litterbox.NewEnvCache()
			if err := lb.InstallEnv(cpu, env1); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 500; i++ {
				tgt, err := lb.PrologWith(cpu, env1, 2, 0, cache)
				if err != nil {
					t.Error(err)
					return
				}
				if tgt.Name != "e1&e2" {
					t.Errorf("nested Prolog landed in %s", tgt.Name)
					return
				}
				if err := lb.Epilog(cpu, tgt, env1, 2, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Exactly one intersection env was materialised.
	if n := len(lb.EnvsSnapshot()); n != 4 {
		t.Fatalf("have %d envs, want 4 (trusted, e1, e2, e1&e2)", n)
	}
}

func TestEnvCacheInvalidatesOnViewGeneration(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewBaseline(), twoEnclosures()...)
	cpu := hw.NewCPU(f.clock)
	cache := litterbox.NewEnvCache()
	trusted := lb.Trusted()

	if _, err := lb.PrologWith(cpu, trusted, 1, 0, cache); err != nil {
		t.Fatal(err)
	}
	if _, err := lb.PrologWith(cpu, trusted, 1, 0, cache); err != nil {
		t.Fatal(err)
	}
	hits, misses := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("pre-import stats: hits=%d misses=%d, want 1/1", hits, misses)
	}

	_, viewGen0 := lb.SnapshotGen()
	env1, _ := lb.EnvForEnclosure(1)
	p := &pkggraph.Package{Name: "dynmod", Funcs: []string{"f"}}
	if err := lb.Graph().AddIncremental(p); err != nil {
		t.Fatal(err)
	}
	pl, err := f.img.PlaceDynamic(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.AddDynamicPackage(cpu, p, pl.Sections(), []*litterbox.Env{env1}); err != nil {
		t.Fatal(err)
	}
	if _, viewGen1 := lb.SnapshotGen(); viewGen1 == viewGen0 {
		t.Fatal("dynamic import did not move the view generation")
	}

	// The next lookup must miss: its entries were resolved pre-import.
	if _, err := lb.PrologWith(cpu, trusted, 1, 0, cache); err != nil {
		t.Fatal(err)
	}
	if _, m := cache.Stats(); m != 2 {
		t.Fatalf("post-import misses = %d, want 2 (cache flushed)", m)
	}
}
