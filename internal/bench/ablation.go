package bench

import (
	"fmt"

	"github.com/litterbox-project/enclosure/internal/apps/wiki"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/litterbox"
)

// AblationResult quantifies one design-choice study.
type AblationResult struct {
	Name    string             `json:"name"`
	Detail  string             `json:"detail"`
	Metrics map[string]float64 `json:"metrics"`
}

// RunVirtKeysAblation measures the libmpk-style key-virtualisation
// slow path: a program whose clustering needs more meta-packages than
// MPK has keys, driven through every enclosure so the key cache
// thrashes. Reported: meta-packages, eviction slow paths, and the
// pkey_mprotect retags they cost.
func RunVirtKeysAblation(enclosures int) (AblationResult, error) {
	b := core.NewBuilder(core.MPK)
	pkg := func(i int) string { return fmt.Sprintf("pkg%02d", i) }
	var imports []string
	for i := 0; i < enclosures; i++ {
		imports = append(imports, pkg(i))
	}
	b.Package(core.PackageSpec{Name: "main", Imports: imports})
	for i := 0; i < enclosures; i++ {
		i := i
		b.Package(core.PackageSpec{
			Name: pkg(i),
			Vars: map[string]int{"state": 64},
			Funcs: map[string]core.Func{
				"Touch": func(t *core.Task, args ...core.Value) ([]core.Value, error) {
					ref, err := t.Prog().VarRef(pkg(i), "state")
					if err != nil {
						return nil, err
					}
					t.Store8(ref.Addr, byte(i))
					return nil, nil
				},
			},
		})
		pb := core.NewPolicy().Sys()
		if i > 0 {
			pb.Read(pkg(i - 1))
		}
		policy := pb.String()
		b.Enclosure(fmt.Sprintf("e%02d", i), "main", policy,
			func(t *core.Task, args ...core.Value) ([]core.Value, error) {
				return t.Call(pkg(i), "Touch")
			}, pkg(i))
	}
	prog, err := b.Build()
	if err != nil {
		return AblationResult{}, err
	}
	err = prog.Run(func(t *core.Task) error {
		for round := 0; round < 3; round++ {
			for i := 0; i < enclosures; i++ {
				if _, err := prog.MustEnclosure(fmt.Sprintf("e%02d", i)).Call(t); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return AblationResult{}, err
	}
	mpk, ok := prog.LitterBox().Backend().(*litterbox.MPKBackend)
	if !ok {
		return AblationResult{}, fmt.Errorf("not MPK")
	}
	c := prog.Counters().Snapshot()
	return AblationResult{
		Name:   "libmpk-key-virtualisation",
		Detail: fmt.Sprintf("%d enclosures over %d cache slots", enclosures, litterbox.VirtCacheSlots),
		Metrics: map[string]float64{
			"meta-packages":  float64(len(prog.LitterBox().MetaPackages())),
			"remaps":         float64(mpk.Remaps()),
			"pkey_mprotects": float64(c.PkeyMprotects),
			"virtualised":    boolMetric(mpk.Virtualized()),
		},
	}, nil
}

// RunSchedulerAblation measures the Execute hook under user-level
// scheduling: N threads in disjoint enclosures yield Y times each on
// one CPU; every resume that changes environments pays a switch.
func RunSchedulerAblation(kind core.BackendKind, threads, yields int) (AblationResult, error) {
	b := core.NewBuilder(kind)
	pkg := func(i int) string { return fmt.Sprintf("lib%02d", i) }
	var imports []string
	for i := 0; i < threads; i++ {
		imports = append(imports, pkg(i))
	}
	b.Package(core.PackageSpec{Name: "main", Imports: imports})
	for i := 0; i < threads; i++ {
		i := i
		b.Package(core.PackageSpec{
			Name: pkg(i),
			Vars: map[string]int{"state": 64},
			Funcs: map[string]core.Func{
				"Spin": func(t *core.Task, args ...core.Value) ([]core.Value, error) {
					ref, err := t.Prog().VarRef(pkg(i), "state")
					if err != nil {
						return nil, err
					}
					for y := 0; y < yields; y++ {
						t.Store8(ref.Addr, byte(y))
						t.Yield()
					}
					return nil, nil
				},
			},
		})
		b.Enclosure(fmt.Sprintf("e%02d", i), "main", "sys:none",
			func(t *core.Task, args ...core.Value) ([]core.Value, error) {
				return t.Call(pkg(i), "Spin")
			}, pkg(i))
	}
	prog, err := b.Build()
	if err != nil {
		return AblationResult{}, err
	}
	s, err := prog.NewScheduler()
	if err != nil {
		return AblationResult{}, err
	}
	for i := 0; i < threads; i++ {
		i := i
		s.Spawn(fmt.Sprintf("t%02d", i), func(t *core.Task) error {
			_, err := prog.MustEnclosure(fmt.Sprintf("e%02d", i)).Call(t)
			return err
		})
	}
	start := prog.Clock().Now()
	if err := s.Run(); err != nil {
		return AblationResult{}, err
	}
	elapsed := prog.Clock().Now() - start
	c := prog.Counters().Snapshot()
	return AblationResult{
		Name:   "scheduler-execute",
		Detail: fmt.Sprintf("%v: %d threads x %d yields on one CPU", kind, threads, yields),
		Metrics: map[string]float64{
			"resumes":     float64(s.Resumes()),
			"switches":    float64(c.Switches),
			"virtual-us":  float64(elapsed) / 1e3,
			"us-per-ctxs": float64(elapsed) / 1e3 / float64(s.Resumes()),
		},
	}, nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// runClusteringAblation quantifies §5.3's clustering argument on the
// paper's richest program (the Figure 5 wiki): without clustering every
// package would need its own MPK key; with it, packages sharing an
// access signature share one — which is what keeps real programs within
// the 16 keys.
func runClusteringAblation() (AblationResult, error) {
	prog, err := wiki.Program(core.MPK, wiki.PolicyServer, wiki.PolicyProxy)
	if err != nil {
		return AblationResult{}, err
	}
	packages := prog.Graph().Len()
	metas := len(prog.LitterBox().MetaPackages())
	return AblationResult{
		Name:   "meta-package-clustering",
		Detail: "Figure 5 wiki program: packages vs MPK keys after clustering",
		Metrics: map[string]float64{
			"packages":      float64(packages),
			"meta-packages": float64(metas),
			"keys-saved":    float64(packages - metas),
			"fits-16-keys":  boolMetric(metas <= 15),
		},
	}, nil
}
