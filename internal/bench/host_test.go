package bench

// Host-wall measurements of the simulator itself. Every enclosebench
// section reports virtual time, the paper's cost model; what the
// simulator pays on the host to enforce it is measured here, from
// repeated samples:
//
//	go test ./internal/bench/ -run '^$' -bench Host -count 5
//
// TestHostFloors holds the same bodies to the fast-path and
// warm-instantiation floors. It compares arms round by round: each
// round runs every arm of a comparison once, back to back, timed on the
// thread's CPU clock, and the median of the per-round ratios decides.
// Medians of wall-clock samples taken arm after arm read the vtx clone
// speedup as 4.2x on a 2-vCPU host while other packages' tests ran,
// and 6.5x to 11.0x alone.

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/linker"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
	"github.com/litterbox-project/enclosure/internal/seccomp"
	"github.com/litterbox-project/enclosure/internal/vtx"
)

// hostRounds is the number of rounds of a comparison.
const hostRounds = 7

// hostArm is one timed body: run performs n operations.
type hostArm struct {
	name string
	run  func(n int) error
}

// hostSpeedups runs base and every arm once untimed, then hostRounds
// rounds in which base and each arm, in that order, run their
// operations (baseN for base, n for the arms) after a GC barrier,
// timed on the CPU clock of the thread the goroutine is locked to.
// Every arm of a round so sees the same host load, and time the thread
// spends descheduled is not counted. It logs each arm's median ns per
// operation and returns, per arm, the median over rounds of base's time
// per operation over the arm's.
func hostSpeedups(t *testing.T, base hostArm, baseN int, arms []hostArm, n int) []float64 {
	t.Helper()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	all := append([]hostArm{base}, arms...)
	ops := func(i int) int {
		if i == 0 {
			return baseN
		}
		return n
	}
	for i, arm := range all {
		if err := arm.run(ops(i)); err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
	}
	perOp := make([][]float64, len(all))
	ratios := make([][]float64, len(arms))
	for r := 0; r < hostRounds; r++ {
		for i, arm := range all {
			runtime.GC()
			start := threadCPUNanos()
			if err := arm.run(ops(i)); err != nil {
				t.Fatalf("%s: %v", arm.name, err)
			}
			perOp[i] = append(perOp[i], float64(threadCPUNanos()-start)/float64(ops(i)))
		}
		for i := range arms {
			ratios[i] = append(ratios[i], perOp[0][r]/perOp[i+1][r])
		}
	}
	for i, arm := range all {
		slices.Sort(perOp[i])
		t.Logf("%-22s median %10.1f ns/op  (%d rounds of %d)", arm.name, perOp[i][hostRounds/2], hostRounds, ops(i))
	}
	out := make([]float64, len(arms))
	for i, q := range ratios {
		slices.Sort(q)
		out[i] = q[hostRounds/2]
		t.Logf("%s over %s: median %.1fx  IQR [%.1f, %.1f]", base.name, arms[i].name, out[i], q[hostRounds/4], q[hostRounds*3/4])
	}
	return out
}

// benchArm runs arm as a Go benchmark body.
func benchArm(b *testing.B, arm hostArm) {
	b.ReportAllocs()
	b.ResetTimer()
	if err := arm.run(b.N); err != nil {
		b.Fatal(err)
	}
}

// TestHostFloors holds the compiled verdict table faster than the BPF
// interpreter, and a snapshot clone at least 5x and a recycled instance
// at least 10x faster than a cold build on LB_MPK and LB_VTX.
func TestHostFloors(t *testing.T) {
	if raceEnabled {
		t.Skip("host-wall floors: the race detector slows the measured paths unevenly")
	}
	verdict, err := verdictArms()
	if err != nil {
		t.Fatal(err)
	}
	if s := hostSpeedups(t, verdict[0], 20000, verdict[1:], 20000)[0]; s <= 1 {
		t.Errorf("verdict table not faster than the interpreter: %.2fx", s)
	}

	clone, recycled := map[string]float64{}, map[string]float64{}
	for _, kind := range []core.BackendKind{core.MPK, core.VTX} {
		arms, verify, err := instantiateArms(kind)
		if err != nil {
			t.Fatal(err)
		}
		s := hostSpeedups(t, arms[0], 12, arms[1:], 48)
		clone[kind.String()], recycled[kind.String()] = s[0], s[1]
		if err := verify(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
	for _, b := range []string{"mpk", "vtx"} {
		t.Logf("%s: clone %.1fx, recycled %.1fx faster than a cold build", b, clone[b], recycled[b])
	}
	checkInstantiateFloors(t, clone, recycled)
}

// checkInstantiateFloors holds per-backend speedups over a cold build
// to the warm-instantiation floors.
func checkInstantiateFloors(t *testing.T, clone, recycled map[string]float64) {
	t.Helper()
	for _, b := range []string{"mpk", "vtx"} {
		if clone[b] < 5 {
			t.Errorf("%s: clone speedup %.1fx below 5x floor", b, clone[b])
		}
		if recycled[b] < 10 {
			t.Errorf("%s: recycled speedup %.1fx below 10x floor", b, recycled[b])
		}
	}
}

func BenchmarkHostVerdict(b *testing.B) {
	arms, err := verdictArms()
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) { benchArm(b, arm) })
	}
}

func BenchmarkHostInstantiate(b *testing.B) {
	for _, kind := range ProjectionBackends {
		arms, _, err := instantiateArms(kind)
		if err != nil {
			b.Fatal(err)
		}
		for _, arm := range arms {
			b.Run(arm.name, func(b *testing.B) { benchArm(b, arm) })
		}
	}
}

// BenchmarkHostVTXInit times LB_VTX Init of a 48-enclosure world, whose
// cost is per-environment page-table construction, with
// content-addressed page-table sharing off and on. Linking each world
// is left out of the timing.
func BenchmarkHostVTXInit(b *testing.B) {
	for _, share := range []bool{false, true} {
		b.Run(fmt.Sprintf("sharing=%v", share), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				img, specs, err := envWorld(48)
				if err != nil {
					b.Fatal(err)
				}
				clock := hw.NewClock()
				k := kernel.New(img.Space, clock)
				backend := litterbox.NewVTX(vtx.NewMachine(img.Space, clock))
				backend.SetSharing(share)
				b.StartTimer()
				if _, err := litterbox.Init(litterbox.Config{
					Image: img, Specs: specs, Clock: clock,
					Kernel: k, Proc: k.NewProc(1, 2, 3), Backend: backend,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// verdictSink defeats dead-code elimination in the verdict loops.
var verdictSink uint32

// verdictArms returns syscall-verdict dispatch over a deterministic
// syscall mix, interpreting the seccomp BPF program per call and
// probing the compiled verdict table, in that order.
func verdictArms() ([]hostArm, error) {
	rules := dispatchRules()
	art, err := seccomp.CompileArtifacts(rules, seccomp.RetTrap, seccomp.RetTrap)
	if err != nil {
		return nil, err
	}
	work := dispatchWorkload(rules)
	interp := func(n int) error {
		for i := 0; i < n; i++ {
			v, err := art.Prog.Run(&work[i%len(work)])
			if err != nil {
				return err
			}
			verdictSink += v
		}
		return nil
	}
	table := func(n int) error {
		for i := 0; i < n; i++ {
			verdictSink += art.Table.Verdict(&work[i%len(work)])
		}
		return nil
	}
	return []hostArm{{"verdict/interpreter", interp}, {"verdict/table", table}}, nil
}

// dispatchRules builds a policy resembling a real multi-enclosure
// program: eight environments, ~48 permitted syscalls each, one in
// three with a connect allowlist engaged.
func dispatchRules() []seccomp.EnvRule {
	var rules []seccomp.EnvRule
	for e := 0; e < 8; e++ {
		r := seccomp.EnvRule{PKRU: 0x5550_0000 + uint32(e)*0x44}
		for s := 0; s < 48; s++ {
			r.Allowed = append(r.Allowed, uint32((e*53+s*7)%400))
		}
		if e%3 == 0 {
			r.ConnectNr = 42
			for h := 0; h < 16; h++ {
				r.ConnectAllow = append(r.ConnectAllow, 0x0A00_0000+uint32(e*64+h))
			}
		}
		rules = append(rules, r)
	}
	return rules
}

// dispatchWorkload precomputes a deterministic mix of syscall data:
// known and unknown PKRUs, allowed and denied numbers, connect probes.
func dispatchWorkload(rules []seccomp.EnvRule) []seccomp.Data {
	out := make([]seccomp.Data, 4096)
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := range out {
		d := &out[i]
		d.Arch = seccomp.AuditArchSim
		if next()%8 == 0 {
			d.PKRU = uint32(next()) // mostly-unknown environment
		} else {
			d.PKRU = rules[next()%uint64(len(rules))].PKRU
		}
		if next()%6 == 0 {
			d.Nr = 42 // connect: engages the allowlist in some envs
			d.Args[1] = 0x0A00_0000 + next()%1024
		} else {
			d.Nr = uint32(next() % 450)
		}
	}
	return out
}

// instantiateArms returns kind's three ways to produce a fresh,
// isolated program instance, in order: a cold Builder.Build, a
// Template.Instantiate clone, and a Template.Recycle of a used
// instance. verify runs the work enclosure on the cold build, a fresh
// clone and the recycled instance, which must all compute the same
// result.
func instantiateArms(kind core.BackendKind) (arms []hostArm, verify func() error, err error) {
	base, err := buildChurnProgram(kind)
	if err != nil {
		return nil, nil, err
	}
	tmpl, err := base.Snapshot()
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	// The recycled instance is used once, dirtying pages, so the arm
	// measures the steady-state reset a warm pool pays between requests.
	inst, err := tmpl.Instantiate()
	if err != nil {
		return nil, nil, err
	}
	if err := churnCheck(inst); err != nil {
		return nil, nil, fmt.Errorf("pre-recycle check: %w", err)
	}
	name := kind.String() + "/"
	arms = []hostArm{
		{name + "cold", func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := buildChurnProgram(kind); err != nil {
					return err
				}
			}
			return nil
		}},
		{name + "clone", func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := tmpl.Instantiate(); err != nil {
					return err
				}
			}
			return nil
		}},
		{name + "recycled", func(n int) error {
			for i := 0; i < n; i++ {
				np, err := tmpl.Recycle(inst)
				if err != nil {
					return err
				}
				inst = np
			}
			return nil
		}},
	}
	verify = func() error {
		fresh, err := tmpl.Instantiate()
		if err != nil {
			return err
		}
		for _, p := range []*core.Program{base, fresh, inst} {
			if err := churnCheck(p); err != nil {
				return err
			}
		}
		return nil
	}
	return arms, verify, nil
}

// buildChurnProgram assembles the representative program the
// instantiation arms produce: three packages with real variable
// footprints, and a "work" enclosure whose policy exercises the view
// compiler and the syscall filter, so a cold build pays linking, policy
// compilation, and backend installation.
func buildChurnProgram(kind core.BackendKind) (*core.Program, error) {
	b := core.NewBuilder(kind)
	b.Package(core.PackageSpec{
		Name: "main", Imports: []string{"libParse"},
		Vars:   map[string]int{"secret": 64, "conf": 256},
		Origin: "app", LOC: 120,
	})
	b.Package(core.PackageSpec{
		Name: "libParse", Imports: []string{"libFmt"},
		Vars:   map[string]int{"tables": 4096},
		Origin: "public", LOC: 800,
		Funcs: map[string]core.Func{
			"Work": func(t *core.Task, args ...core.Value) ([]core.Value, error) {
				if _, errno := t.Syscall(kernel.NrGetuid); errno != kernel.OK {
					return nil, fmt.Errorf("getuid: %v", errno)
				}
				return []core.Value{args[0].(int) * 2}, nil
			},
		},
	})
	b.Package(core.PackageSpec{
		Name: "libFmt", Vars: map[string]int{"pad": 512},
		Origin: "public", LOC: 300,
	})
	b.Enclosure("work", "main", "sys:proc",
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call("libParse", "Work", args...)
		}, "libParse", "libFmt")
	return b.Build()
}

// churnCheck runs the work enclosure on prog and verifies the result.
func churnCheck(prog *core.Program) error {
	var got int
	err := prog.Run(func(t *core.Task) error {
		out, err := prog.MustEnclosure("work").Call(t, 21)
		if err != nil {
			return err
		}
		got = out[0].(int)
		return nil
	})
	if err != nil {
		return err
	}
	if got != 42 {
		return fmt.Errorf("work returned %d, want 42", got)
	}
	return nil
}

// envWorld links a program image with eight extra library packages, so
// page tables have enough sections for their build cost to show, and
// nEncl enclosures sharing one declaring package and policy: the
// many-instances-of-one-policy shape page-table sharing exploits.
func envWorld(nEncl int) (*linker.Image, []litterbox.EnclosureSpec, error) {
	g := pkggraph.New()
	libs := []string{"lib0", "lib1", "lib2", "lib3", "lib4", "lib5", "lib6", "lib7"}
	pkgs := []*pkggraph.Package{
		{Name: "main", Imports: append([]string{"secrets"}, libs...), Vars: map[string]int{"key": 64}},
		{Name: "secrets", Vars: map[string]int{"data": 128}},
	}
	for _, l := range libs {
		pkgs = append(pkgs, &pkggraph.Package{Name: l, Funcs: []string{"F"}, Vars: map[string]int{"state": 256}})
	}
	for _, p := range pkgs {
		if err := g.Add(p); err != nil {
			return nil, nil, err
		}
	}
	for _, name := range []string{pkggraph.UserPkg, pkggraph.SuperPkg} {
		if err := g.AddReserved(&pkggraph.Package{Name: name}); err != nil {
			return nil, nil, err
		}
	}
	if err := g.Seal(); err != nil {
		return nil, nil, err
	}
	var decls []linker.DeclInput
	var specs []litterbox.EnclosureSpec
	for i := 0; i < nEncl; i++ {
		name := fmt.Sprintf("e%d", i+1)
		decls = append(decls, linker.DeclInput{Name: name, Pkg: "main", Policy: "secrets:R; sys:proc"})
		specs = append(specs, litterbox.EnclosureSpec{
			ID: i + 1, Name: name, Pkg: "main",
			Policy: litterbox.Policy{
				Mods: map[string]litterbox.AccessMod{"secrets": litterbox.ModR},
				Cats: kernel.CatProc,
			},
		})
	}
	img, err := linker.Link(g, decls, mem.NewAddressSpace(0))
	if err != nil {
		return nil, nil, err
	}
	return img, specs, nil
}
