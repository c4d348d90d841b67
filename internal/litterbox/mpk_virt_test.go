package litterbox_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/linker"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/mpk"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
)

// The libmpk key-virtualisation fallback (mpk_virt.go), checked
// against a small model of its key cache: key 1 pinned to the super
// meta-package, keys 2..14 a FIFO cache of meta-packages, key 15 the
// cold tag every enclosure denies.

const (
	modelSuperKey  = 1
	modelFirstSlot = 2
	modelColdKey   = 15
)

func virtPkg(i int) string { return fmt.Sprintf("pkg%02d", i) }

// newVirtFixture links n packages, each behind its own enclosure that
// also reads its predecessor, so every package has its own access
// signature and the program has more meta-packages than MPK has keys.
// With wide, one more enclosure declared in main sees all of them.
func newVirtFixture(t *testing.T, n int, wide bool) (*fixture, *litterbox.LitterBox, *litterbox.MPKBackend) {
	t.Helper()
	g := pkggraph.New()
	root := &pkggraph.Package{Name: "main"}
	for i := 0; i < n; i++ {
		root.Imports = append(root.Imports, virtPkg(i))
	}
	pkgs := []*pkggraph.Package{root}
	for i := 0; i < n; i++ {
		pkgs = append(pkgs, &pkggraph.Package{Name: virtPkg(i), Vars: map[string]int{"state": 16}})
	}
	for _, p := range pkgs {
		if err := g.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{pkggraph.UserPkg, pkggraph.SuperPkg} {
		if err := g.AddReserved(&pkggraph.Package{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}
	var decls []linker.DeclInput
	var specs []litterbox.EnclosureSpec
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("e%02d", i)
		decls = append(decls, linker.DeclInput{Name: name, Pkg: virtPkg(i), Policy: "test"})
		pol := litterbox.Policy{Mods: map[string]litterbox.AccessMod{}}
		if i > 0 {
			pol.Mods[virtPkg(i-1)] = litterbox.ModR
		}
		specs = append(specs, litterbox.EnclosureSpec{ID: i + 1, Name: name, Pkg: virtPkg(i), Policy: pol})
	}
	if wide {
		decls = append(decls, linker.DeclInput{Name: "wide", Pkg: "main", Policy: "test"})
		specs = append(specs, litterbox.EnclosureSpec{ID: n + 1, Name: "wide", Pkg: "main"})
	}
	space := mem.NewAddressSpace(0)
	img, err := linker.Link(g, decls, space)
	if err != nil {
		t.Fatal(err)
	}
	clock := hw.NewClock()
	k := kernel.New(space, clock)
	f := &fixture{img: img, space: space, clock: clock, k: k, proc: k.NewProc(1, 2, 3), cpu: hw.NewCPU(clock)}
	b := litterbox.NewMPK(mpk.NewUnit(space))
	lb := f.initWith(t, b, specs...)
	if !b.Virtualized() {
		t.Fatalf("%d meta-packages did not virtualise the keys", len(lb.MetaPackages()))
	}
	if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
		t.Fatal(err)
	}
	return f, lb, b
}

// keyModel is the key cache as the model sees it.
type keyModel struct {
	metas  [][]string
	phys   []int // meta index -> physical key
	fifo   []int // cached metas, oldest first
	super  int
	remaps int64
}

// newKeyModel is the assignment right after Setup: the super
// meta-package on key 1, the first 13 others in clustering order on
// keys 2..14, the rest cold.
func newKeyModel(metas [][]string) *keyModel {
	m := &keyModel{metas: metas, phys: make([]int, len(metas)), super: -1}
	for i, group := range metas {
		if slices.Contains(group, pkggraph.SuperPkg) {
			m.super = i
		}
	}
	for i := range metas {
		switch {
		case i == m.super:
			m.phys[i] = modelSuperKey
		case len(m.fifo) < litterbox.VirtCacheSlots:
			m.phys[i] = modelFirstSlot + len(m.fifo)
			m.fifo = append(m.fifo, i)
		default:
			m.phys[i] = modelColdKey
		}
	}
	return m
}

// needs lists the metas env's view touches.
func (m *keyModel) needs(env *litterbox.Env) []int {
	var out []int
	for i, group := range m.metas {
		if env.ModOf(group[0]) > litterbox.ModU {
			out = append(out, i)
		}
	}
	return out
}

// enter pages env's cold metas in, each taking the key of the oldest
// cached meta env does not need, and returns the (victim, incoming)
// metas whose sections were retagged.
func (m *keyModel) enter(env *litterbox.Env) []int {
	needed := m.needs(env)
	var retagged []int
	for _, in := range needed {
		if in == m.super || m.phys[in] != modelColdKey {
			continue
		}
		j := slices.IndexFunc(m.fifo, func(v int) bool { return !slices.Contains(needed, v) })
		victim := m.fifo[j]
		m.fifo = append(slices.Delete(m.fifo, j, j+1), in)
		m.phys[in], m.phys[victim] = m.phys[victim], modelColdKey
		m.remaps++
		retagged = append(retagged, victim, in)
	}
	return retagged
}

// pkru is env's PKRU under the model's assignment.
func (m *keyModel) pkru(env *litterbox.Env) hw.PKRU {
	p := hw.PKRUAllDenied
	if env.Trusted {
		for k := 0; k < hw.NumKeys; k++ {
			p = p.WithKey(k, k != modelSuperKey, k != modelSuperKey)
		}
		return p
	}
	for i, group := range m.metas {
		mod := env.ModOf(group[0])
		if mod == litterbox.ModU || m.phys[i] == modelColdKey || m.phys[i] == modelSuperKey {
			continue
		}
		p = p.WithKey(m.phys[i], mod >= litterbox.ModR, mod >= litterbox.ModRW)
	}
	return p
}

// check compares every package's key, every environment's PKRU and
// the remap count with the model.
func (m *keyModel) check(t *testing.T, lb *litterbox.LitterBox, b *litterbox.MPKBackend, step string) {
	t.Helper()
	for i, group := range m.metas {
		for _, pkg := range group {
			if got := b.KeyOf(pkg); got != m.phys[i] {
				t.Fatalf("%s: %s on key %d, model says %d", step, pkg, got, m.phys[i])
			}
		}
	}
	for id := litterbox.EnvID(0); ; id++ {
		env, ok := lb.Env(id)
		if !ok {
			break
		}
		if want := m.pkru(env); env.PKRU != want {
			t.Fatalf("%s: env %s PKRU %v, model says %v", step, env.Name, env.PKRU, want)
		}
	}
	if b.Remaps() != m.remaps {
		t.Fatalf("%s: %d remaps, model says %d", step, b.Remaps(), m.remaps)
	}
}

// TestMPKVirtKeysMatchModel enters enclosures in a seeded random order
// and holds the backend to the model after each switch: which meta is
// evicted (the oldest one the target does not need), the key it hands
// over, every environment's re-derived PKRU, and one charged
// pkey_mprotect per retagged section.
func TestMPKVirtKeysMatchModel(t *testing.T) {
	const n = 20
	f, lb, b := newVirtFixture(t, n, false)
	m := newKeyModel(lb.MetaPackages())
	if m.super < 0 || len(m.metas) <= hw.NumKeys-1 {
		t.Fatalf("clustering gave %d meta-packages (super at %d)", len(m.metas), m.super)
	}
	m.check(t, lb, b, "setup")

	sections := func(metas []int) int64 {
		var pkgs []string
		for _, i := range metas {
			pkgs = append(pkgs, m.metas[i]...)
		}
		var c int64
		for _, sec := range f.space.Sections() {
			if slices.Contains(pkgs, sec.Pkg) {
				c++
			}
		}
		return c
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 60; step++ {
		i := rng.Intn(n)
		id, token := i+1, f.img.Enclosures[i].Token
		env, err := lb.EnvForEnclosure(id)
		if err != nil {
			t.Fatal(err)
		}
		retagged := m.enter(env)
		before, clock := f.cpu.Counters.PkeyMprotects, f.clock.Now()
		got, err := lb.Prolog(f.cpu, lb.Trusted(), id, token)
		if err != nil {
			t.Fatalf("step %d: enter e%02d: %v", step, i, err)
		}
		name := fmt.Sprintf("step %d (e%02d)", step, i)
		m.check(t, lb, b, name)
		if f.cpu.PKRU() != m.pkru(got) {
			t.Fatalf("%s: CPU PKRU %v, model says %v", name, f.cpu.PKRU(), m.pkru(got))
		}
		if want := sections(retagged); f.cpu.Counters.PkeyMprotects-before != want {
			t.Fatalf("%s: %d pkey_mprotects, model retags %d sections", name, f.cpu.Counters.PkeyMprotects-before, want)
		}
		if len(retagged) > 0 && f.clock.Now()-clock < sections(retagged)*hw.CostPkeyMprotect {
			t.Fatalf("%s: a remap charged %d ns, less than its retags", name, f.clock.Now()-clock)
		}
		if err := lb.Epilog(f.cpu, got, lb.Trusted(), id, token); err != nil {
			t.Fatal(err)
		}
	}
	if m.remaps == 0 {
		t.Fatal("the walk never evicted a meta-package")
	}
}

// TestMPKVirtKeysExhausted: an enclosure whose view needs more
// meta-packages at once than the cache has keys cannot be entered, and
// the failed entry remaps nothing.
func TestMPKVirtKeysExhausted(t *testing.T) {
	const n = 20
	f, lb, b := newVirtFixture(t, n, true)
	m := newKeyModel(lb.MetaPackages())
	wide, err := lb.EnvForEnclosure(n + 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.needs(wide)); got <= litterbox.VirtCacheSlots {
		t.Fatalf("wide view needs %d meta-packages, not more than %d", got, litterbox.VirtCacheSlots)
	}
	_, err = lb.Prolog(f.cpu, lb.Trusted(), n+1, f.img.Enclosures[n].Token)
	if !errors.Is(err, litterbox.ErrViewTooWide) {
		t.Fatalf("entering the wide enclosure: %v, want ErrViewTooWide", err)
	}
	m.check(t, lb, b, "after the refused entry")
}
