package probe

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// separateLinks builds each backend's world from its own link of the
// spec, as BuildWorld does for a single world — what BuildWorlds did
// before it forked one link.
var separateLinks = Arm{Name: "separate-links", Build: func(spec WorldSpec) ([]*World, error) {
	worlds := make([]*World, 0, len(backendNames))
	for _, name := range backendNames {
		w, err := BuildWorld(spec, name)
		if err != nil {
			return nil, err
		}
		worlds = append(worlds, w)
	}
	return worlds, nil
}}

// TestForkedWorldsMatchSeparateLinks replays each seeded trace on the
// reference arm's forked worlds and on worlds linked one by one; the
// outcome digests must match bit for bit.
func TestForkedWorldsMatchSeparateLinks(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 50
	}
	sweepArms(t, n, Arm{}, separateLinks)
}

// TestForkedWorldsIsolated mutates one of a trace's four forked worlds
// — a trusted write to a package's data page, a heap-span transfer and
// a dynamic import — and requires the other three to see none of it:
// not the bytes, not the section owners, not the graph or the image
// layout of the new package.
func TestForkedWorldsIsolated(t *testing.T) {
	const dyn = "dynfork"
	for i, name := range backendNames {
		t.Run(name, func(t *testing.T) {
			worlds, err := BuildWorlds(containedSpec())
			if err != nil {
				t.Fatal(err)
			}
			before := make([]string, len(worlds))
			for j, w := range worlds {
				before[j] = forkView(t, w, dyn)
			}

			w := worlds[i]
			if err := w.LB.Space.WriteAt(w.Img.Layout("p1").Data.Base, []byte("fork-private")); err != nil {
				t.Fatalf("trusted write: %v", err)
			}
			if err := w.LB.Transfer(w.CPU, w.Spans[1], "p1"); err != nil {
				t.Fatalf("transfer: %v", err)
			}
			if out := w.dynImport(Op{Kind: OpDynImport, Encl: 1, Pkg: dyn}); out != "ok" {
				t.Fatalf("dynamic import: %s", out)
			}

			for j, o := range worlds {
				after := forkView(t, o, dyn)
				switch {
				case j == i && after == before[j]:
					t.Fatalf("the mutations left no trace in the %s world itself", o.Name)
				case j != i && after != before[j]:
					t.Fatalf("mutating the %s world changed the %s world:\nbefore:\n%s\nafter:\n%s", name, o.Name, before[j], after)
				}
			}
		})
	}
}

// forkView renders what a world shows of the state its fork must keep
// private: every section's placement, owner and bytes, and whether its
// graph and image know the package dyn.
func forkView(t *testing.T, w *World, dyn string) string {
	t.Helper()
	var b strings.Builder
	for _, s := range w.LB.Space.Sections() {
		buf := make([]byte, s.Size)
		if err := w.LB.Space.ReadAt(s.Base, buf); err != nil {
			t.Fatalf("%s world: reading %s: %v", w.Name, s.Name, err)
		}
		h := fnv.New64a()
		h.Write(buf)
		fmt.Fprintf(&b, "%s %s+%d owner=%s bytes=%#x\n", s.Name, s.Base, s.Size, s.Pkg, h.Sum64())
	}
	fmt.Fprintf(&b, "graph has %s: %v; image lays out %s: %v\n", dyn, w.Img.Graph.Has(dyn), dyn, w.Img.Layout(dyn) != nil)
	return b.String()
}

// BenchmarkBuildWorlds builds the four forked worlds of 64 seeded specs
// per iteration: one link, four Inits (each decoding and cross-checking
// its fork's .pkgs), and the MPK gadget scan, the per-trace set-up that
// probe sweeps repeat.
func BenchmarkBuildWorlds(b *testing.B) {
	specs := make([]WorldSpec, 64)
	for i := range specs {
		specs[i] = Gen(uint64(i+1), 0).Spec
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if _, err := BuildWorlds(spec); err != nil {
				b.Fatal(err)
			}
		}
	}
}
