package probe

import (
	"fmt"
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure/internal/kernel"
)

// TestSweepArmEquivalence replays each seeded trace under the reference
// arm and under the snapshot arms — fresh snapshot clones and recycled
// instances — and requires every arm's outcome digest to match the
// reference's bit for bit, on all four backends, with the oracle
// applied inside every replay. The interpreter and sequential-drain
// arms have their own sweeps in fastpath_test.go and ring_test.go.
func TestSweepArmEquivalence(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 30
	}
	var warm Warm
	sweepArms(t, n, Arm{}, warm.Clone(), warm.Recycled())
	// Every trace captures one template per backend (its validation
	// clone is the clone arm's instance) and recycles each instance once.
	if clones, recycles := warm.Stats(); clones != int64(4*n) || recycles != int64(4*n) {
		t.Fatalf("templates report %d clones, %d recycles; want %d each", clones, recycles, 4*n)
	}
}

// sweepArms sweeps n seeded traces under arms and fails with the shrunk
// reproducer of the first divergence.
func sweepArms(t *testing.T, n int, arms ...Arm) {
	t.Helper()
	stats, div, err := Sweep(sweepSeed, n, 40, arms...)
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		shrunk, sdiv := Shrink(Gen(div.Seed, 40), arms...)
		t.Fatalf("%s\n\nshrunk to %d ops:\n%s", div, len(shrunk.Ops), sdiv)
	}
	if stats.Traces != n {
		t.Fatalf("swept %d traces, want %d", stats.Traces, n)
	}
}

// brokenArms differ from the reference only in ways the harness must
// catch: one arms a spurious errno on every world, so only the digest
// can tell; the other builds worlds whose enclosures may make every
// syscall, which the model rejects.
func brokenArms() []Arm {
	return []Arm{
		{Name: "errno", Configure: func(w *World) { w.CPU.Inj.ArmSyscallErrno(1, uint32(kernel.EAGAIN)) }},
		{Name: "grant-all", Build: func(spec WorldSpec) ([]*World, error) {
			spec.Encls = append([]EnclSpec(nil), spec.Encls...)
			for i := range spec.Encls {
				spec.Encls[i].Cats = kernel.CatAll
			}
			return BuildWorlds(spec)
		}},
	}
}

// TestBrokenArmDivergenceNamesArm checks that an arm made to differ
// fails the sweep, and that the divergence names that arm.
func TestBrokenArmDivergenceNamesArm(t *testing.T) {
	for _, broken := range brokenArms() {
		t.Run(broken.Name, func(t *testing.T) {
			_, div, err := Sweep(sweepSeed, 30, 40, Arm{}, SequentialDrain, broken)
			if err != nil {
				t.Fatal(err)
			}
			if div == nil {
				t.Fatal("sweep passed an arm that differs from the reference")
			}
			if div.Arm != broken.Name {
				t.Fatalf("divergence names arm %q, want %q:\n%s", div.Arm, broken.Name, div)
			}
			if !strings.Contains(div.String(), "in arm "+broken.Name) {
				t.Fatalf("report does not name the arm:\n%s", div)
			}
		})
	}
}

// TestShrinkKeepsArm shrinks a divergence found only in one arm: the
// reproducer must be shorter than the trace and still diverge in that
// arm, under the same arms the sweep used.
func TestShrinkKeepsArm(t *testing.T) {
	errno := brokenArms()[0]
	arms := []Arm{{}, Interpreter, errno}
	_, div, err := Sweep(sweepSeed, 30, 40, arms...)
	if err != nil || div == nil {
		t.Fatalf("sweep: div=%v err=%v", div, err)
	}
	if div.Kind != "digest" {
		t.Fatalf("errno arm diverged by %q, want a digest-only divergence:\n%s", div.Kind, div)
	}
	shrunk, sdiv := Shrink(Gen(div.Seed, 40), arms...)
	if sdiv == nil {
		t.Fatal("shrink lost the divergence")
	}
	if sdiv.Arm != errno.Name {
		t.Fatalf("shrunk divergence names arm %q, want %q", sdiv.Arm, errno.Name)
	}
	if len(shrunk.Ops) >= 40 {
		t.Fatalf("shrink kept all %d ops", len(shrunk.Ops))
	}
	if d, _, _ := RunTrace(shrunk, arms...); d == nil || d.Arm != errno.Name {
		t.Fatalf("shrunk trace does not reproduce in arm %s: %v", errno.Name, d)
	}
}

// TestReproduceLineReplaysTrace checks that the printed command replays
// the diverging trace: Gen is prefix-stable, so the command must carry
// the trace length, not just the seed.
func TestReproduceLineReplaysTrace(t *testing.T) {
	arms := []Arm{{}, brokenArms()[0]}
	_, div, err := Sweep(sweepSeed, 10, 80, arms...)
	if err != nil || div == nil {
		t.Fatalf("sweep: div=%v err=%v", div, err)
	}
	want := fmt.Sprintf("reproduce: enclose probe -seed %d -ops 80", div.Seed)
	if !strings.Contains(div.String(), want) {
		t.Fatalf("report lacks %q:\n%s", want, div)
	}
	if d, _, _ := RunTrace(Gen(div.Seed, div.TraceLen), arms...); d == nil {
		t.Fatal("the reproduce line's trace does not diverge")
	}
	if _, sdiv := Shrink(Gen(div.Seed, 80), arms...); sdiv == nil || sdiv.TraceLen != 80 {
		t.Fatalf("shrunk report must replay the unshrunk trace: %v", sdiv)
	}
}
