package kernel

import (
	"sync"
	"testing"

	"github.com/litterbox-project/enclosure/internal/seccomp"
)

// fastWorld installs one compiled filter allowing getpid/getuid for
// PKRU 0 and nothing else.
func fastWorld(t *testing.T) *world {
	t.Helper()
	w := newWorld(t)
	art, err := seccomp.CompileArtifacts([]seccomp.EnvRule{
		{PKRU: 0, Allowed: []uint32{uint32(NrGetpid), uint32(NrGetuid)}},
	}, seccomp.RetTrap, seccomp.RetTrap)
	if err != nil {
		t.Fatal(err)
	}
	w.k.SetCompiledFilter(art)
	return w
}

func (w *world) filtered(nr Nr, args ...uint64) (uint64, Errno) {
	var a [6]uint64
	copy(a[:], args)
	return w.k.Invoke(w.p, w.cpu, nr, a)
}

func TestCompiledFilterFastPath(t *testing.T) {
	w := fastWorld(t)
	if w.k.fastOff {
		t.Fatal("fast path should default on")
	}
	if ret, errno := w.filtered(NrGetpid); errno != OK || ret != 42 {
		t.Fatalf("allowed call: ret=%d errno=%v", ret, errno)
	}
	if _, errno := w.filtered(NrOpen, 0, 4); errno != ESECCOMP {
		t.Fatalf("denied call: %v", errno)
	}
	if w.k.FastVerdicts() != 2 {
		t.Fatalf("fast verdicts = %d, want 2", w.k.FastVerdicts())
	}

	// Same calls through the interpreter: identical errnos, no new fast
	// verdicts.
	w.k.SetFastPath(false)
	if _, errno := w.filtered(NrGetuid); errno != OK {
		t.Fatalf("interpreter allowed call: %v", errno)
	}
	if _, errno := w.filtered(NrOpen, 0, 4); errno != ESECCOMP {
		t.Fatalf("interpreter denied call: %v", errno)
	}
	if w.k.FastVerdicts() != 2 {
		t.Fatalf("interpreter path bumped fast verdicts: %d", w.k.FastVerdicts())
	}
}

// TestFastPathVirtualCostIdentical pins the §6 cost model: the verdict
// table must not change what the simulated hardware charges per
// filtered syscall (Table 1's 387+136 for MPK depends on it).
func TestFastPathVirtualCostIdentical(t *testing.T) {
	wFast := fastWorld(t)
	wSlow := fastWorld(t)
	wSlow.k.SetFastPath(false)

	wFast.filtered(NrGetpid)
	wSlow.filtered(NrGetpid)
	if f, s := wFast.cpu.Clock.Now(), wSlow.cpu.Clock.Now(); f != s {
		t.Fatalf("virtual cost diverged: fast=%d slow=%d", f, s)
	}
	wFast.filtered(NrOpen, 0, 4)
	wSlow.filtered(NrOpen, 0, 4)
	if f, s := wFast.cpu.Clock.Now(), wSlow.cpu.Clock.Now(); f != s {
		t.Fatalf("virtual cost diverged on denial: fast=%d slow=%d", f, s)
	}
}

func TestFastPathCrossCheck(t *testing.T) {
	w := fastWorld(t)
	w.k.SetCrossCheck(true)
	for i := 0; i < 50; i++ {
		w.filtered(NrGetpid)
		w.filtered(NrConnect, 3, 99, 80)
		w.filtered(NrOpen, 0, 4)
	}
	if d := w.k.FilterDivergences(); d != 0 {
		t.Fatalf("cross-check found %d divergences", d)
	}
	if w.k.FastVerdicts() == 0 {
		t.Fatal("cross-check mode must still exercise the table")
	}
}

// TestSetCompiledFilterSwap interleaves filter swaps with filtered
// calls from two goroutines. Like a program's simulated goroutines they
// take turns on one mutex, which stands in for the run token (the
// kernel itself takes no lock); run under -race.
func TestSetCompiledFilterSwap(t *testing.T) {
	w := fastWorld(t)
	artA, _ := seccomp.CompileArtifacts([]seccomp.EnvRule{
		{PKRU: 0, Allowed: []uint32{uint32(NrGetpid)}},
	}, seccomp.RetTrap, seccomp.RetTrap)
	artB, _ := seccomp.CompileArtifacts([]seccomp.EnvRule{
		{PKRU: 0, Allowed: []uint32{uint32(NrGetpid), uint32(NrGetuid)}},
	}, seccomp.RetTrap, seccomp.RetTrap)

	var run sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			run.Lock()
			if i%2 == 0 {
				w.k.SetCompiledFilter(artA)
			} else {
				w.k.SetCompiledFilter(artB)
			}
			run.Unlock()
		}
	}()
	for i := 0; i < 2000; i++ {
		run.Lock()
		_, errno := w.filtered(NrGetpid)
		run.Unlock()
		if errno != OK {
			t.Fatalf("getpid allowed under both filters: %v", errno)
		}
	}
	<-done
}
