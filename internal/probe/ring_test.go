package probe

// Differential validation of the batched syscall ring on hand-built
// traces: batching on (the default SyscallBatch drain) and off (the
// SequentialDrain arm, every batch entry routed through the sequential
// per-entry gateway) must produce bit-identical outcome digests on all
// four backends. Mid-batch denial, post-denial cancellation, injected
// errnos, and dynamic imports between batches are all covered.

import (
	"testing"

	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
)

// ringSpec is a minimal hand-built world: one enclosure over p0 allowed
// only proc-category calls.
func ringSpec() WorldSpec {
	return WorldSpec{
		NPkgs:   4,
		Imports: make([][]int, 4),
		Encls: []EnclSpec{{
			Pkg:  0,
			Mods: map[int]litterbox.AccessMod{},
			Cats: kernel.CatProc,
		}},
		SpanOwners: []int{-1, -1, -1},
	}
}

// runBothModes replays a hand-built trace batched and sequential,
// asserting no divergence and digest equality, and returns the batched
// stats.
func runBothModes(t *testing.T, tr Trace) TraceStats {
	t.Helper()
	div, stats, err := RunTrace(tr, Arm{}, SequentialDrain)
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("divergence:\n%s", div)
	}
	return stats
}

// TestSweepRingDigestEquivalence replays each trace twice — batched
// drain (the reference arm) and sequential reference (the
// SequentialDrain arm) — and requires the outcome digests to match bit
// for bit. Any behavioural difference in verdicts, per-entry results,
// denial position, cancellation, or injection consumption shows up here.
func TestSweepRingDigestEquivalence(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 30
	}
	batches := 0
	for i := 0; i < n; i++ {
		for _, op := range Gen(sweepSeed+uint64(i)*0x9E3779B97F4A7C15, 40).Ops {
			if op.Kind == OpBatch {
				batches++
			}
		}
	}
	if batches == 0 {
		t.Fatal("sweep never generated a batch op")
	}
	sweepArms(t, n, Arm{}, SequentialDrain)
}

// TestRingMidBatchDenialDigest pins the exact denial shape: entries
// before the denial execute, the denial faults, the tail cancels —
// identically in both modes.
func TestRingMidBatchDenialDigest(t *testing.T) {
	tr := Trace{
		Seed: 0xB0B0,
		Spec: ringSpec(),
		Ops: []Op{
			{Kind: OpProlog, Encl: 1, Span: -1},
			{Kind: OpBatch, Span: -1, Batch: []Op{
				{Kind: OpSyscall, Nr: kernel.NrGetpid, Span: -1},
				{Kind: OpSyscall, Nr: kernel.NrSocket, Span: -1}, // CatNet: denied
				{Kind: OpSyscall, Nr: kernel.NrGetuid, Span: -1}, // canceled
			}},
			{Kind: OpEpilog, Span: -1},
		},
	}
	stats := runBothModes(t, tr)
	if stats.Faults != 1 {
		t.Errorf("Faults = %d, want 1 (the mid-batch denial)", stats.Faults)
	}
}

// TestRingMidBatchRuntimeAndInjectionDigest covers runtime entries and
// an armed errno injection consumed inside a batch.
func TestRingMidBatchRuntimeAndInjectionDigest(t *testing.T) {
	tr := Trace{
		Seed: 0xB0B1,
		Spec: ringSpec(),
		Ops: []Op{
			{Kind: OpArmErrno, N: 2, Errno: uint32(kernel.EAGAIN), Span: -1},
			{Kind: OpProlog, Encl: 1, Span: -1},
			{Kind: OpBatch, Span: -1, Batch: []Op{
				{Kind: OpSyscall, Nr: kernel.NrGetpid, Span: -1},
				{Kind: OpSyscall, Nr: kernel.NrGetuid, Span: -1}, // injection fires here
				{Kind: OpSyscall, Nr: kernel.NrSend, Span: -1, Runtime: true, FD: 1, Buf: 0, Len: 8},
				{Kind: OpSyscall, Nr: kernel.NrGetpid, Span: -1},
			}},
			{Kind: OpEpilog, Span: -1},
		},
	}
	stats := runBothModes(t, tr)
	if stats.InjectedErrnos == 0 {
		t.Error("armed errno never fired inside the batch")
	}
}

// TestRingMidBatchDynImportDigest interleaves batches with a dynamic
// import that widens the enclosure's environment mid-trace: verdicts
// before and after the import must match between modes.
func TestRingMidBatchDynImportDigest(t *testing.T) {
	tr := Trace{
		Seed: 0xB0B2,
		Spec: ringSpec(),
		Ops: []Op{
			{Kind: OpProlog, Encl: 1, Span: -1},
			{Kind: OpBatch, Span: -1, Batch: []Op{
				{Kind: OpSyscall, Nr: kernel.NrGetpid, Span: -1},
				{Kind: OpSyscall, Nr: kernel.NrGetuid, Span: -1},
			}},
			{Kind: OpEpilog, Span: -1},
			{Kind: OpDynImport, Pkg: "dyn0", Encl: 1, Span: -1},
			{Kind: OpProlog, Encl: 1, Span: -1},
			{Kind: OpRead, Pkg: "dyn0", Span: -1},
			{Kind: OpBatch, Span: -1, Batch: []Op{
				{Kind: OpSyscall, Nr: kernel.NrGetpid, Span: -1},
				{Kind: OpSyscall, Nr: kernel.NrOpen, Span: -1, Buf: 0}, // CatFile: denied
				{Kind: OpSyscall, Nr: kernel.NrGetuid, Span: -1},
			}},
			{Kind: OpEpilog, Span: -1},
		},
	}
	stats := runBothModes(t, tr)
	if stats.DynImports != 1 {
		t.Errorf("DynImports = %d, want 1", stats.DynImports)
	}
	if stats.Faults != 1 {
		t.Errorf("Faults = %d, want 1 (post-import mid-batch denial)", stats.Faults)
	}
}

// TestSweepRingCrossCheck arms the kernel's verdict-table cross-check
// during a batched sweep: ring drains must agree with the reference
// BPF interpreter on every entry.
func TestSweepRingCrossCheck(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	for i := 0; i < n; i++ {
		tr := Gen(sweepSeed+uint64(i)*0x9E3779B97F4A7C15, 40)
		var worlds []*World
		div, _, err := RunTrace(tr, Arm{Configure: func(w *World) {
			w.K.SetRingCrossCheck(true)
			worlds = append(worlds, w)
		}})
		if err != nil {
			t.Fatalf("seed %#x: %v", tr.Seed, err)
		}
		if div != nil {
			t.Fatalf("seed %#x: oracle divergence under ring cross-check:\n%s", tr.Seed, div)
		}
		for _, w := range worlds {
			if d := w.K.RingDivergences(); d != 0 {
				t.Fatalf("seed %#x, world %s: %d ring/interpreter divergences", tr.Seed, w.Name, d)
			}
		}
	}
}
