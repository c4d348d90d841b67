package bench

// The compiled-policy fast-path benchmark: before/after host-side cost
// of the three hot paths the policy-compilation layer rebuilt. All
// three measurements are host wall-clock — the fast path never changes
// virtual costs (Table 1 is pinned by tests), it changes what the
// simulator itself pays to enforce them.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/linker"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
	"github.com/litterbox-project/enclosure/internal/seccomp"
	"github.com/litterbox-project/enclosure/internal/vtx"
)

// FastpathResult is the `enclosebench -table fastpath` row set: each
// sub-result is one hot path measured with the fast path off (the
// reference implementation, kept for cross-validation) and on.
type FastpathResult struct {
	Dispatch   DispatchResult   `json:"dispatch"`
	EnvCreate  EnvCreateResult  `json:"env_create"`
	Contention ContentionResult `json:"contention"`
}

// DispatchResult compares syscall-verdict dispatch: interpreting the
// seccomp BPF program per call vs one probe of the compiled verdict
// table.
type DispatchResult struct {
	Envs          int     `json:"envs"`
	FilterInsns   int     `json:"filter_insns"`
	Iters         int     `json:"iters"`
	InterpNsPerOp float64 `json:"interp_ns_per_op"`
	TableNsPerOp  float64 `json:"table_ns_per_op"`
	Speedup       float64 `json:"speedup"`
}

// EnvCreateResult compares LB_VTX environment creation with
// content-addressed page-table sharing off (every table built page by
// page) and on (identical views clone one table copy-on-write).
type EnvCreateResult struct {
	Envs             int     `json:"envs"`
	Sections         int     `json:"sections"`
	UnsharedNsPerEnv float64 `json:"unshared_ns_per_env"`
	SharedNsPerEnv   float64 `json:"shared_ns_per_env"`
	Clones           int64   `json:"clones"`
	Splits           int64   `json:"splits"`
	Speedup          float64 `json:"speedup"`
}

// ContentionResult compares concurrent env resolution through the
// mu-guarded reference path and the RCU-style snapshot read path.
type ContentionResult struct {
	Workers         int     `json:"workers"`
	ItersPerWorker  int     `json:"iters_per_worker"`
	LockedNsPerOp   float64 `json:"locked_ns_per_op"`
	SnapshotNsPerOp float64 `json:"snapshot_ns_per_op"`
	Speedup         float64 `json:"speedup"`
}

// verdictSink defeats dead-code elimination in the timing loops.
var verdictSink uint32

// dispatchRules builds a policy resembling a real multi-enclosure
// program: eight environments, ~48 permitted syscalls each, one with a
// connect allowlist engaged.
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

// RunDispatchBench times verdict dispatch over iters operations on
// each path.
func RunDispatchBench(iters int) (DispatchResult, error) {
	rules := dispatchRules()
	art, err := seccomp.CompileArtifacts(rules, seccomp.RetTrap, seccomp.RetTrap)
	if err != nil {
		return DispatchResult{}, err
	}
	work := dispatchWorkload(rules)

	time.Sleep(0) // scheduling point before the timed loops
	run := func(f func(d *seccomp.Data) uint32) float64 {
		// Warm-up pass primes caches on both paths identically.
		for i := range work {
			verdictSink += f(&work[i])
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			verdictSink += f(&work[i%len(work)])
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}

	interpNs := run(func(d *seccomp.Data) uint32 {
		v, err := art.Prog.Run(d)
		if err != nil {
			return 0
		}
		return v
	})
	tableNs := run(func(d *seccomp.Data) uint32 { return art.Table.Verdict(d) })

	out := DispatchResult{
		Envs:          len(rules),
		FilterInsns:   art.Prog.Len(),
		Iters:         iters,
		InterpNsPerOp: interpNs,
		TableNsPerOp:  tableNs,
	}
	if tableNs > 0 {
		out.Speedup = interpNs / tableNs
	}
	return out, nil
}

// fastpathWorld links a program image with extra library packages (so
// page tables have enough sections for build cost to be visible) and
// nEncl enclosures sharing one declaring package and policy — the
// many-instances-of-one-policy shape page-table sharing exploits.
func fastpathWorld(nEncl int) (*pkggraph.Graph, *linker.Image, *mem.AddressSpace, []litterbox.EnclosureSpec, error) {
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
			return nil, nil, nil, nil, err
		}
	}
	if err := g.AddReserved(&pkggraph.Package{Name: pkggraph.UserPkg}); err != nil {
		return nil, nil, nil, nil, err
	}
	if err := g.AddReserved(&pkggraph.Package{Name: pkggraph.SuperPkg}); err != nil {
		return nil, nil, nil, nil, err
	}
	if err := g.Seal(); err != nil {
		return nil, nil, nil, nil, err
	}
	space := mem.NewAddressSpace(0)
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
	img, err := linker.Link(g, decls, space)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return g, img, space, specs, nil
}

// RunEnvCreateBench times LB_VTX Init (dominated by per-environment
// page-table construction) with sharing off and on, over reps
// repetitions of a world with nEncl identical-view enclosures.
func RunEnvCreateBench(nEncl, reps int) (EnvCreateResult, error) {
	out := EnvCreateResult{Envs: nEncl}
	initOnce := func(share bool) (time.Duration, int64, int64, int, error) {
		_, img, space, specs, err := fastpathWorld(nEncl)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		clock := hw.NewClock()
		k := kernel.New(space, clock)
		machine := vtx.NewMachine(space, clock)
		backend := litterbox.NewVTX(machine)
		backend.SetSharing(share)
		start := time.Now()
		_, err = litterbox.Init(litterbox.Config{
			Image: img, Specs: specs, Clock: clock,
			Kernel: k, Proc: k.NewProc(1, 2, 3), Backend: backend,
		})
		elapsed := time.Since(start)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		clones, splits := machine.ShareStats()
		return elapsed, clones, splits, len(space.Sections()), nil
	}

	var unshared, shared time.Duration
	for r := 0; r < reps; r++ {
		d, _, _, secs, err := initOnce(false)
		if err != nil {
			return out, err
		}
		unshared += d
		out.Sections = secs
		d, clones, splits, _, err := initOnce(true)
		if err != nil {
			return out, err
		}
		shared += d
		out.Clones, out.Splits = clones, splits
	}
	n := float64(nEncl * reps)
	out.UnsharedNsPerEnv = float64(unshared.Nanoseconds()) / n
	out.SharedNsPerEnv = float64(shared.Nanoseconds()) / n
	if out.SharedNsPerEnv > 0 {
		out.Speedup = out.UnsharedNsPerEnv / out.SharedNsPerEnv
	}
	return out, nil
}

// RunContentionBench resolves environments from workers concurrent
// goroutines through both read paths: the mu-guarded reference and the
// lock-free snapshot.
func RunContentionBench(workers, iters int) (ContentionResult, error) {
	_, img, _, specs, err := fastpathWorld(4)
	if err != nil {
		return ContentionResult{}, err
	}
	clock := hw.NewClock()
	k := kernel.New(img.Space, clock)
	lb, err := litterbox.Init(litterbox.Config{
		Image: img, Specs: specs, Clock: clock,
		Kernel: k, Proc: k.NewProc(1, 2, 3),
		Backend: litterbox.NewBaseline(),
	})
	if err != nil {
		return ContentionResult{}, err
	}

	run := func(locked bool) float64 {
		lb.SetLockedEnvReads(locked)
		defer lb.SetLockedEnvReads(false)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if _, err := lb.EnvForEnclosure(1 + (w+i)%len(specs)); err != nil {
						return
					}
					lb.Env(litterbox.TrustedEnv)
				}
			}(w)
		}
		wg.Wait()
		// Two resolutions per iteration.
		return float64(time.Since(start).Nanoseconds()) / float64(2*workers*iters)
	}

	out := ContentionResult{Workers: workers, ItersPerWorker: iters}
	out.LockedNsPerOp = run(true)
	out.SnapshotNsPerOp = run(false)
	if out.SnapshotNsPerOp > 0 {
		out.Speedup = out.LockedNsPerOp / out.SnapshotNsPerOp
	}
	return out, nil
}

// runFastpath runs all three fast-path measurements at the given
// dispatch iteration count.
func runFastpath(iters int) (FastpathResult, error) {
	var out FastpathResult
	var err error
	if out.Dispatch, err = RunDispatchBench(iters); err != nil {
		return out, err
	}
	if out.EnvCreate, err = RunEnvCreateBench(48, 8); err != nil {
		return out, err
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	if workers < 2 {
		workers = 2
	}
	if out.Contention, err = RunContentionBench(workers, 20000); err != nil {
		return out, err
	}
	return out, nil
}

// renderFastpathTable formats the fast-path comparison.
func renderFastpathTable(r FastpathResult) string {
	var b strings.Builder
	b.WriteString("Compiled-policy fast path: host-side cost of the three hot paths,\n")
	b.WriteString("reference implementation vs compiled artifact. Virtual costs (Table 1)\n")
	b.WriteString("are identical on both paths by construction.\n\n")
	fmt.Fprintf(&b, "%-34s %12s %12s %9s\n", "Hot path", "before", "after", "speedup")
	fmt.Fprintf(&b, "%-34s %10.1fns %10.1fns %8.1fx\n",
		fmt.Sprintf("syscall verdict (%d insns BPF)", r.Dispatch.FilterInsns),
		r.Dispatch.InterpNsPerOp, r.Dispatch.TableNsPerOp, r.Dispatch.Speedup)
	fmt.Fprintf(&b, "%-34s %10.0fns %10.0fns %8.1fx\n",
		fmt.Sprintf("env creation (%d envs, %d secs)", r.EnvCreate.Envs, r.EnvCreate.Sections),
		r.EnvCreate.UnsharedNsPerEnv, r.EnvCreate.SharedNsPerEnv, r.EnvCreate.Speedup)
	fmt.Fprintf(&b, "%-34s %10.1fns %10.1fns %8.1fx\n",
		fmt.Sprintf("env resolution (%d workers)", r.Contention.Workers),
		r.Contention.LockedNsPerOp, r.Contention.SnapshotNsPerOp, r.Contention.Speedup)
	fmt.Fprintf(&b, "\npage-table sharing: %d clones, %d copy-on-write splits\n",
		r.EnvCreate.Clones, r.EnvCreate.Splits)
	return b.String()
}
