package litterbox_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/litterbox-project/enclosure/internal/cheri"
	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/linker"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/mpk"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
	"github.com/litterbox-project/enclosure/internal/vtx"
)

// TestBackendsAgreeOnDataAccess: for random programs, policies, and
// data accesses, LB_MPK, LB_VTX, and LB_CHERI must return identical
// allow/deny decisions on rodata/data sections. (Text sections are
// deliberately excluded: MPK cannot hide code pages from *reads* — a
// real hardware asymmetry the paper handles at the language level.)
func TestBackendsAgreeOnDataAccess(t *testing.T) {
	f := func(seed uint32) bool {
		// Build a random 6-package program with one random-policy
		// enclosure, three times over identical layouts.
		build := func(mk func(space *mem.AddressSpace, clock *hw.Clock) litterbox.Backend) (*litterbox.LitterBox, *linker.Image, *hw.CPU, error) {
			g := pkggraph.New()
			const n = 6
			name := func(i int) string { return fmt.Sprintf("p%d", i) }
			local := seed | 1
			lnext := func() uint32 {
				local = local*1664525 + 1013904223
				return local
			}
			for i := 0; i < n; i++ {
				var imports []string
				for j := 0; j < i; j++ {
					if lnext()%3 == 0 {
						imports = append(imports, name(j))
					}
				}
				if err := g.Add(&pkggraph.Package{Name: name(i), Imports: imports,
					Vars: map[string]int{"v": 64}, Consts: map[string][]byte{"c": []byte("const")}}); err != nil {
					return nil, nil, nil, err
				}
			}
			_ = g.AddReserved(&pkggraph.Package{Name: pkggraph.UserPkg})
			_ = g.AddReserved(&pkggraph.Package{Name: pkggraph.SuperPkg})
			if err := g.Seal(); err != nil {
				return nil, nil, nil, err
			}
			space := mem.NewAddressSpace(0)
			img, err := linker.Link(g, []linker.DeclInput{{Name: "e", Pkg: name(int(lnext()) % n), Policy: "rand"}}, space)
			if err != nil {
				return nil, nil, nil, err
			}
			pol := litterbox.Policy{Mods: map[string]litterbox.AccessMod{}}
			for i := 0; i < n; i++ {
				switch lnext() % 5 {
				case 0:
					pol.Mods[name(i)] = litterbox.AccessMod(lnext()%3) + litterbox.ModR
				case 1:
					pol.Mods[name(i)] = litterbox.ModU
				}
			}
			clock := hw.NewClock()
			k := kernel.New(space, clock)
			lb, err := litterbox.Init(litterbox.Config{
				Image: img, Clock: clock, Kernel: k, Proc: k.NewProc(1, 1, 1),
				Backend: mk(space, clock),
				Specs: []litterbox.EnclosureSpec{{
					ID: 1, Name: "e", Pkg: img.Enclosures[0].Pkg, Policy: pol,
				}},
			})
			if err != nil {
				return nil, nil, nil, err
			}
			cpu := hw.NewCPU(clock)
			if err := lb.InstallEnv(cpu, lb.Trusted()); err != nil {
				return nil, nil, nil, err
			}
			return lb, img, cpu, nil
		}

		type world struct {
			lb  *litterbox.LitterBox
			img *linker.Image
			cpu *hw.CPU
		}
		var worlds []world
		for _, mk := range []func(*mem.AddressSpace, *hw.Clock) litterbox.Backend{
			func(s *mem.AddressSpace, c *hw.Clock) litterbox.Backend { return litterbox.NewMPK(mpk.NewUnit(s)) },
			func(s *mem.AddressSpace, c *hw.Clock) litterbox.Backend {
				return litterbox.NewVTX(vtx.NewMachine(s, c))
			},
			func(s *mem.AddressSpace, c *hw.Clock) litterbox.Backend { return litterbox.NewCHERI(cheri.NewUnit(c)) },
		} {
			lb, img, cpu, err := build(mk)
			if err != nil {
				return false
			}
			worlds = append(worlds, world{lb, img, cpu})
		}

		// Enter the enclosure everywhere (decisions are checked inside
		// it; the backends share identical layouts by construction).
		var envs []*litterbox.Env
		for _, w := range worlds {
			env, err := w.lb.Prolog(w.cpu, w.lb.Trusted(), 1, w.img.Enclosures[0].Token)
			if err != nil {
				return false
			}
			envs = append(envs, env)
		}

		// Probe every package's rodata and data sections for R and W.
		for i := 0; i < 6; i++ {
			pkg := fmt.Sprintf("p%d", i)
			for _, kind := range []string{"rodata", "data"} {
				for _, write := range []bool{false, true} {
					var verdicts []bool
					for wi, w := range worlds {
						pl := w.img.Packages[pkg]
						sec := pl.ROData
						if kind == "data" {
							sec = pl.Data
						}
						var err error
						if write {
							err = w.lb.Backend().CheckAccess(w.cpu, sec.Base+8, 4, true)
						} else {
							err = w.lb.Backend().CheckAccess(w.cpu, sec.Base+8, 4, false)
						}
						verdicts = append(verdicts, err == nil)
						_ = wi
						_ = envs
					}
					if verdicts[0] != verdicts[1] || verdicts[1] != verdicts[2] {
						t.Logf("seed %d: %s.%s write=%v verdicts mpk=%v vtx=%v cheri=%v",
							seed, pkg, kind, write, verdicts[0], verdicts[1], verdicts[2])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTransferVisibilityProperty: after arbitrary transfer sequences,
// a span is readable inside the enclosure exactly when its current
// owner's modifier grants R — on every enforcing backend.
func TestTransferVisibilityProperty(t *testing.T) {
	mk := []func(f *fixture) litterbox.Backend{
		func(f *fixture) litterbox.Backend { return litterbox.NewMPK(mpk.NewUnit(f.space)) },
		func(f *fixture) litterbox.Backend { return litterbox.NewVTX(vtx.NewMachine(f.space, f.clock)) },
		func(f *fixture) litterbox.Backend { return litterbox.NewCHERI(cheri.NewUnit(f.clock)) },
	}
	dests := []string{"main", "lib", "util", "secrets", kernel.HeapOwner}
	prop := func(seed uint32, which uint8) bool {
		f := newFixture(t)
		lb := f.initWith(t, mk[int(which)%len(mk)](f))
		if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
			return false
		}
		var spans []*mem.Section
		for i := 0; i < 3; i++ {
			s, err := f.space.Map(fmt.Sprintf("prop-span-%d", i), kernel.HeapOwner, mem.KindHeap, mem.PageSize, mem.PermR|mem.PermW)
			if err != nil {
				return false
			}
			spans = append(spans, s)
		}
		rng := seed | 1
		next := func() uint32 {
			rng = rng*22695477 + 1
			return rng
		}
		for i := 0; i < 12; i++ {
			s := spans[next()%3]
			if err := lb.Transfer(f.cpu, s, dests[next()%uint32(len(dests))]); err != nil {
				return false
			}
		}
		env, err := lb.Prolog(f.cpu, lb.Trusted(), 1, f.img.Enclosures[0].Token)
		if err != nil {
			return false
		}
		for _, s := range spans {
			mod := env.ModOf(s.Pkg)
			if s.Pkg == kernel.HeapOwner {
				mod = litterbox.ModU
			}
			readable := lb.Backend().CheckAccess(f.cpu, s.Base+8, 4, false) == nil
			writable := lb.Backend().CheckAccess(f.cpu, s.Base+8, 4, true) == nil
			if readable != (mod >= litterbox.ModR) || writable != (mod >= litterbox.ModRW) {
				t.Logf("seed %d backend %s: span owned by %s mod=%v readable=%v writable=%v",
					seed, lb.Backend().Name(), s.Pkg, mod, readable, writable)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
