package litterbox

// Regression benchmarks for the environment-literal churn fix: nested
// Prologs intersect views and compare restrictiveness on every env
// switch, so those paths must not copy whole view maps or connect
// allowlists per call. The alloc pins keep the fix from regressing.

import (
	"testing"

	"github.com/litterbox-project/enclosure/internal/kernel"
)

func benchEnvPair() (*Env, *Env) {
	ev := map[string]AccessMod{}
	fv := map[string]AccessMod{}
	for _, p := range []string{"main", "lib", "util", "fmtlib", "jsonlib", "net", "db", "tmpl"} {
		ev[p] = ModRWX
		fv[p] = ModRW
	}
	fv["extra"] = ModR
	e := &Env{ID: 1, Name: "a", View: ev, Cats: kernel.CatProc | kernel.CatNet,
		ConnectAllow: []uint32{0x0a000002, 0x0a000003}}
	f := &Env{ID: 2, Name: "b", View: fv, Cats: kernel.CatProc}
	return e, f
}

// TestMoreRestrictiveThanZeroAlloc pins the nesting check at zero
// allocations — it previously copied the whole view per call.
func TestMoreRestrictiveThanZeroAlloc(t *testing.T) {
	e, f := benchEnvPair()
	if allocs := testing.AllocsPerRun(200, func() {
		_ = f.MoreRestrictiveThan(e)
	}); allocs != 0 {
		t.Fatalf("MoreRestrictiveThan allocates %.1f objects/op, want 0", allocs)
	}
}

// TestIntersectSharesConnectAllow: when only one side restricts
// connect, the intersection shares the surviving immutable allowlist
// instead of copying it, and nil-ness (unrestricted) vs empty non-nil
// (block everything) survives exactly.
func TestIntersectSharesConnectAllow(t *testing.T) {
	e, f := benchEnvPair()
	out := intersect(e, f)
	if &out.ConnectAllow[0] != &e.ConnectAllow[0] {
		t.Fatal("one-sided allowlist was copied, want shared")
	}
	e.ConnectAllow = nil
	if out := intersect(e, f); out.ConnectAllow != nil {
		t.Fatal("nil ∩ nil should stay nil (unrestricted)")
	}
	e.ConnectAllow = []uint32{}
	if out := intersect(e, f); out.ConnectAllow == nil {
		t.Fatal("empty allowlist collapsed to nil — block-everything lost")
	}
	e.ConnectAllow = []uint32{7, 9}
	f.ConnectAllow = []uint32{9, 11}
	out = intersect(e, f)
	if len(out.ConnectAllow) != 1 || out.ConnectAllow[0] != 9 {
		t.Fatalf("intersection = %v, want [9]", out.ConnectAllow)
	}
}

// BenchmarkEnvIntersect measures the nested-switch intersection; run
// with -benchmem — the fix removed the two per-call view copies and
// the allowlist clone.
func BenchmarkEnvIntersect(b *testing.B) {
	e, f := benchEnvPair()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		intersect(e, f)
	}
}

// BenchmarkEnvMoreRestrictive measures the nesting fast-path check.
func BenchmarkEnvMoreRestrictive(b *testing.B) {
	e, f := benchEnvPair()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.MoreRestrictiveThan(e)
	}
}
