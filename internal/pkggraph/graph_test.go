package pkggraph

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func mustAdd(t *testing.T, g *Graph, name string, imports ...string) {
	t.Helper()
	if err := g.Add(&Package{Name: name, Imports: imports}); err != nil {
		t.Fatalf("Add(%s): %v", name, err)
	}
}

func TestAddErrors(t *testing.T) {
	g := New()
	mustAdd(t, g, "a")
	if err := g.Add(&Package{Name: "a"}); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate: %v", err)
	}
	if err := g.Add(&Package{Name: ""}); !errors.Is(err, ErrEmptyName) {
		t.Errorf("empty: %v", err)
	}
	if err := g.Add(&Package{Name: "b", Imports: []string{"b"}}); !errors.Is(err, ErrSelfImport) {
		t.Errorf("self import: %v", err)
	}
	if err := g.Add(&Package{Name: UserPkg}); !errors.Is(err, ErrReservedPkg) {
		t.Errorf("reserved: %v", err)
	}
	if err := g.AddReserved(&Package{Name: SuperPkg}); err != nil {
		t.Errorf("AddReserved: %v", err)
	}
}

func TestSealValidation(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", "missing")
	if err := g.Seal(); !errors.Is(err, ErrMissingDep) {
		t.Fatalf("missing dep: %v", err)
	}

	g = New()
	mustAdd(t, g, "a", "b")
	mustAdd(t, g, "b", "c")
	mustAdd(t, g, "c", "a")
	if err := g.Seal(); !errors.Is(err, ErrCycle) {
		t.Fatalf("cycle: %v", err)
	}

	g = New()
	mustAdd(t, g, "a", "b")
	mustAdd(t, g, "b")
	if err := g.Seal(); err != nil {
		t.Fatalf("valid graph: %v", err)
	}
	if !g.Sealed() {
		t.Fatal("not sealed")
	}
	if err := g.Add(&Package{Name: "late"}); err == nil {
		t.Fatal("Add after seal succeeded")
	}
}

func TestNaturalDeps(t *testing.T) {
	// Figure 1's shape: main -> {secrets, img, libFx, os}, libFx -> img.
	g := New()
	mustAdd(t, g, "main", "secrets", "img", "libFx", "os")
	mustAdd(t, g, "secrets")
	mustAdd(t, g, "img")
	mustAdd(t, g, "libFx", "img")
	mustAdd(t, g, "os")
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}

	deps, err := g.NaturalDeps("libFx")
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 1 || deps[0] != "img" {
		t.Fatalf("libFx deps = %v", deps)
	}

	deps, _ = g.NaturalDeps("main")
	want := []string{"img", "libFx", "os", "secrets"}
	if fmt.Sprint(deps) != fmt.Sprint(want) {
		t.Fatalf("main deps = %v, want %v", deps, want)
	}

	// secrets is foreign to libFx; img is not.
	if foreign, _ := g.Foreign("libFx", "secrets"); !foreign {
		t.Error("secrets should be foreign to libFx")
	}
	if foreign, _ := g.Foreign("libFx", "img"); foreign {
		t.Error("img should not be foreign to libFx")
	}
	if foreign, _ := g.Foreign("libFx", "libFx"); foreign {
		t.Error("a package is never foreign to itself")
	}
	if _, err := g.Foreign("libFx", "nope"); err == nil {
		t.Error("Foreign with unknown package succeeded")
	}
}

func TestTopoOrderProperty(t *testing.T) {
	// For random DAGs (edges only from higher to lower index, so always
	// acyclic), TopoOrder must place every package after its imports.
	f := func(seed uint32) bool {
		g := New()
		const n = 12
		rng := seed
		next := func() uint32 {
			rng = rng*1664525 + 1013904223
			return rng
		}
		for i := 0; i < n; i++ {
			var imports []string
			for j := 0; j < i; j++ {
				if next()%3 == 0 {
					imports = append(imports, name(j))
				}
			}
			if err := g.Add(&Package{Name: name(i), Imports: imports}); err != nil {
				return false
			}
		}
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		pos := make(map[string]int, n)
		for i, nm := range order {
			pos[nm] = i
		}
		for i := 0; i < n; i++ {
			p, _ := g.Lookup(name(i))
			for _, im := range p.Imports {
				if pos[im] > pos[p.Name] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func name(i int) string { return fmt.Sprintf("pkg%02d", i) }

// TestNaturalDepsTransitiveProperty: the natural-dependency set is
// closed under imports.
func TestNaturalDepsTransitiveProperty(t *testing.T) {
	f := func(seed uint32) bool {
		g := New()
		const n = 10
		rng := seed
		next := func() uint32 {
			rng = rng*22695477 + 1
			return rng
		}
		for i := 0; i < n; i++ {
			var imports []string
			for j := 0; j < i; j++ {
				if next()%4 == 0 {
					imports = append(imports, name(j))
				}
			}
			_ = g.Add(&Package{Name: name(i), Imports: imports})
		}
		if err := g.Seal(); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			deps, err := g.NaturalDeps(name(i))
			if err != nil {
				return false
			}
			set := map[string]bool{}
			for _, d := range deps {
				set[d] = true
			}
			// Closure property: imports of every member are members.
			check := append([]string{name(i)}, deps...)
			for _, m := range check {
				p, _ := g.Lookup(m)
				for _, im := range p.Imports {
					if !set[im] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAddIncremental(t *testing.T) {
	g := New()
	mustAdd(t, g, "base")
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}
	// Dynamic import after sealing (the Python frontend's path, §5.2).
	if err := g.AddIncremental(&Package{Name: "late", Imports: []string{"base"}}); err != nil {
		t.Fatal(err)
	}
	deps, err := g.NaturalDeps("late")
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 1 || deps[0] != "base" {
		t.Fatalf("late deps = %v", deps)
	}
	if err := g.AddIncremental(&Package{Name: "bad", Imports: []string{"ghost"}}); !errors.Is(err, ErrMissingDep) {
		t.Fatalf("incremental missing dep: %v", err)
	}
	if err := g.AddIncremental(&Package{Name: "late"}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("incremental duplicate: %v", err)
	}
}

func TestTotalLOCAndClone(t *testing.T) {
	g := New()
	_ = g.Add(&Package{Name: "a", Meta: Metadata{LOC: 100}})
	_ = g.Add(&Package{Name: "b", Meta: Metadata{LOC: 50}})

	p := &Package{
		Name: "x", Imports: []string{"a"},
		Consts: map[string][]byte{"c": {1, 2}},
		Vars:   map[string]int{"v": 8},
	}
	q := p.Clone()
	q.Imports[0] = "mutated"
	q.Consts["c"][0] = 99
	if p.Imports[0] != "a" || p.Consts["c"][0] != 1 {
		t.Fatal("Clone shares state with the original")
	}
}

func TestNamesAndLen(t *testing.T) {
	g := New()
	mustAdd(t, g, "zeta")
	mustAdd(t, g, "alpha")
	if g.Len() != 2 {
		t.Fatalf("Len = %d", g.Len())
	}
	names := g.Names()
	if names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("Names = %v (want sorted)", names)
	}
	if !g.Has("alpha") || g.Has("ghost") {
		t.Fatal("Has broken")
	}
	if _, err := g.Lookup("ghost"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("Lookup ghost: %v", err)
	}
}
