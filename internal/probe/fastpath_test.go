package probe

// Differential validation of the compiled-policy fast path: replaying
// the same seeded traces under the reference arm and the Interpreter arm
// must produce bit-identical outcome digests, and the in-kernel
// cross-check (table and interpreter run side by side, interpreter
// authoritative) must record zero divergences across the sweep.

import "testing"

// TestSweepFastPathDigestEquivalence replays each trace twice — fast
// path on (the reference arm) and off (the Interpreter arm, pure BPF
// interpretation) — and requires the outcome digests to match bit for
// bit. Any behavioural difference between the verdict table and the
// interpreter, on any backend, in any layer the oracle watches, shows
// up here.
func TestSweepFastPathDigestEquivalence(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 30
	}
	sweepArms(t, n, Arm{}, Interpreter)
}

// TestSweepFastPathCrossCheck runs traces with the kernel's
// cross-check armed: every verdict is computed by both the table and
// the interpreter, with the interpreter authoritative. The sweep must
// record zero divergences, and the fast path must actually have fired
// (a sweep that never consulted the table proves nothing).
func TestSweepFastPathCrossCheck(t *testing.T) {
	n := 80
	if testing.Short() {
		n = 15
	}
	var fastVerdicts int64
	for i := 0; i < n; i++ {
		tr := Gen(sweepSeed+uint64(i)*0x9E3779B97F4A7C15, 40)
		var worlds []*World
		div, _, err := RunTrace(tr, Arm{Configure: func(w *World) {
			w.K.SetCrossCheck(true)
			worlds = append(worlds, w)
		}})
		if err != nil {
			t.Fatalf("seed %#x: %v", tr.Seed, err)
		}
		if div != nil {
			t.Fatalf("seed %#x: oracle divergence under cross-check:\n%s", tr.Seed, div)
		}
		for _, w := range worlds {
			if d := w.K.FilterDivergences(); d != 0 {
				t.Fatalf("seed %#x, world %s: %d table/interpreter divergences", tr.Seed, w.Name, d)
			}
			fastVerdicts += w.K.FastVerdicts()
		}
	}
	if fastVerdicts == 0 {
		t.Fatal("cross-check sweep never exercised the verdict table")
	}
}
