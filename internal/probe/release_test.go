package probe

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
)

// A cold arm gives its worlds' pages back when its trace ends, so the
// next trace's link, spans and dynamic imports promote into arrays an
// earlier trace wrote. These tests pin that no byte crosses over.

// dirtyTrace writes kernel random bytes into a span and into p1's data
// section, and dynamically imports two packages, from the trusted
// frame. Spans 0 and 1 belong to packages, so the trusted view reaches
// them.
func dirtyTrace() Trace {
	return Trace{
		Seed: 0xD1E7,
		Spec: WorldSpec{
			NPkgs:   3,
			Imports: make([][]int, 3),
			Encls: []EnclSpec{{
				Pkg:  0,
				Mods: map[int]litterbox.AccessMod{},
				Cats: kernel.CatProc,
			}},
			SpanOwners: []int{0, 1, -1},
		},
		Ops: []Op{
			{Kind: OpSyscall, Nr: kernel.NrGetrandom, Buf: 0, Len: 256, Span: -1},
			{Kind: OpSyscall, Nr: kernel.NrGetrandom, Buf: NSpans + 1, Len: 64, Span: -1},
			{Kind: OpDynImport, Encl: 1, Pkg: dynName(0), Span: -1},
			{Kind: OpDynImport, Encl: 1, Pkg: dynName(1), Span: -1},
		},
	}
}

// birthBytes builds the spec's four worlds and returns every section's
// bytes, keyed by world and section name.
func birthBytes(t *testing.T, spec WorldSpec) map[string][]byte {
	t.Helper()
	worlds, err := BuildWorlds(spec)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, w := range worlds {
		for _, sec := range w.LB.Space.Sections() {
			b := make([]byte, sec.Size)
			if err := w.LB.Space.ReadAt(sec.Base, b); err != nil {
				t.Fatal(err)
			}
			out[w.Name+"/"+sec.Name] = b
		}
	}
	return out
}

// TestReleasedWorldsDoNotLeakIntoNextTrace runs a trace that writes
// spans and package data and imports packages, releases its worlds,
// and checks that the next worlds of the same spec read at birth what
// worlds built from new arrays read, and that replaying the trace
// gives the same outcome digest. The garbage collector is off so the
// released pages stay pooled for the next build.
func TestReleasedWorldsDoNotLeakIntoNextTrace(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tr := dirtyTrace()
	runtime.GC()
	runtime.GC() // two cycles empty every sync.Pool: the build below takes new arrays
	fresh := birthBytes(t, tr.Spec)

	// Replay the trace by hand to see it write, then release the
	// worlds: the pool now holds pages full of its bytes.
	worlds, template, err := buildWorlds(tr.Spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range worlds {
		for _, op := range tr.Ops {
			if out, _ := execOp(w, op); out != "ok" && out != "ret=256 errno=0" && out != "ret=64 errno=0" {
				t.Fatalf("%s world: %s: %s", w.Name, op, out)
			}
		}
		key := w.Name + "/" + spanNames[0]
		span := make([]byte, 256)
		if err := w.LB.Space.ReadAt(w.Spans[0].Base, span); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(span, fresh[key][:256]) {
			t.Fatalf("%s world: getrandom left span 0 as it was born", w.Name)
		}
	}
	release(template, worlds...)

	div, first, err := RunTrace(tr)
	if err != nil || div != nil {
		t.Fatalf("first replay: %v %v", err, div)
	}
	div, second, err := RunTrace(tr)
	if err != nil || div != nil {
		t.Fatalf("second replay: %v %v", err, div)
	}
	if first.Digest != second.Digest || first.DynImports != 2 {
		t.Fatalf("replays: digest %#x then %#x, %d dynamic imports", first.Digest, second.Digest, first.DynImports)
	}

	reborn := birthBytes(t, tr.Spec)
	if len(reborn) != len(fresh) {
		t.Fatalf("%d sections at rebirth, %d fresh", len(reborn), len(fresh))
	}
	for key, want := range fresh {
		if !bytes.Equal(reborn[key], want) {
			t.Errorf("%s reads differently after released worlds fed the pool", key)
		}
	}
}
