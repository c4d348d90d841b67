package core

import (
	"fmt"

	"github.com/litterbox-project/enclosure/internal/alloc"
	"github.com/litterbox-project/enclosure/internal/cheri"
	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/linker"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/mpk"
	"github.com/litterbox-project/enclosure/internal/obs"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
	"github.com/litterbox-project/enclosure/internal/vtx"
)

// PackageSpec declares one program package to the Builder: its static
// shape (imports, constants, variables), its code (Go functions playing
// the role of the package's compiled functions), and provenance metadata
// for the TCB study.
type PackageSpec struct {
	Name    string
	Imports []string

	// Provenance (Table 2's TCB columns).
	LOC          int
	Stars        int
	Contributors int
	Origin       string // "app", "stdlib", "public", ...

	// Funcs are the package's functions, callable via Task.Call.
	Funcs map[string]Func
	// Consts map constant names to immutable byte images (rodata).
	Consts map[string][]byte
	// Vars map static-variable names to sizes in bytes (data, zeroed).
	Vars map[string]int

	// Init, if non-nil, runs at package load time in dependency order.
	// InitPolicy, if non-empty, wraps it in an enclosure — the paper's
	// syntactic sugar for tagging import statements with policies.
	Init       Func
	InitPolicy string
}

type declInput struct {
	name   string
	pkg    string
	policy string
	body   Func
	uses   []string
}

// EnclPkgName returns the hidden graph package that models an
// enclosure's closure: the closure has its own identity, text section,
// arena, and direct dependencies (§4.1, §5.1 — the type checker
// registers an enclosure's direct dependencies; here the declaration
// states them). Its natural dependencies, not the declaring package's,
// seed the default memory view — which is why Figure 1's rcl, declared
// in main, cannot read main's private key.
func EnclPkgName(name string) string { return "encl." + name }

// Builder assembles a simulated program: it plays the role of the
// paper's extended Go compiler and linker. Declarations happen "at
// compile time"; Build links the image, validates every policy
// (satisfiability is checked here, mirroring §5.1's compile-time
// validation of policy literals), and initialises LitterBox.
type Builder struct {
	backend    BackendKind
	spaceCap   uint64
	pkgs       []*PackageSpec
	decls      []declInput
	pwPolicies [][2]string // program-wide policies: {package, policy}
	built      bool

	// Observability configuration (see options.go).
	tracer        *obs.Trace
	audit         *obs.Audit
	engineWorkers int

	// ringDepth enables the batched syscall submission ring when
	// positive (options.go WithSyscallRing; 0 keeps it off).
	ringDepth int

	// warmPool enables engine-side warm-snapshot instantiation when
	// positive (options.go WithWarmPool; 0 keeps it off).
	warmPool int
}

// NewBuilder returns a program builder targeting the given backend,
// configured by the given options.
func NewBuilder(backend BackendKind, opts ...Option) *Builder {
	b := &Builder{backend: backend}
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// Package declares a package. Order is irrelevant; imports are resolved
// at Build.
func (b *Builder) Package(p PackageSpec) *Builder {
	cp := p
	b.pkgs = append(b.pkgs, &cp)
	return b
}

// EnclosePackage installs a program-wide policy on a package (§3.2):
// every call into pkg from non-enclosed code is automatically wrapped
// in an enclosure with the given policy — the automation the paper
// says "a compiler could" perform instead of the programmer manually
// enclosing each call site. Calls that already run inside an enclosure
// are left alone (their active environment already restricts them, and
// nesting could only tighten it).
func (b *Builder) EnclosePackage(pkg, policy string) *Builder {
	b.pwPolicies = append(b.pwPolicies, [2]string{pkg, policy})
	return b
}

// Enclosure declares `with [policy] func ...` in package pkg with the
// given closure body. The policy is a literal in the paper's syntax and
// is validated at Build time. uses lists the closure's direct
// dependencies — the packages its body references — which the paper's
// type checker would infer; the default memory view is their transitive
// closure (plus the closure's own arena), not the declaring package.
func (b *Builder) Enclosure(name, pkg, policy string, body Func, uses ...string) *Builder {
	b.decls = append(b.decls, declInput{name: name, pkg: pkg, policy: policy, body: body, uses: uses})
	return b
}

// Build seals the dependence graph, links the image, computes views, and
// initialises the selected backend, returning the runnable Program.
// Package init functions run before Build returns, enclosed when their
// import was tagged with a policy.
func (b *Builder) Build() (*Program, error) {
	if b.built {
		return nil, ErrBuilt
	}
	b.built = true

	graph := pkggraph.New()
	// LitterBox's own two packages (§5.3).
	if err := graph.AddReserved(&pkggraph.Package{
		Name:  pkggraph.UserPkg,
		Funcs: []string{"prolog", "epilog", "transfer", "execute"},
		Meta:  pkggraph.Metadata{Origin: "litterbox", LOC: 6500},
	}); err != nil {
		return nil, err
	}
	if err := graph.AddReserved(&pkggraph.Package{
		Name: pkggraph.SuperPkg,
		Vars: map[string]int{"descriptions": 4096},
		Meta: pkggraph.Metadata{Origin: "litterbox"},
	}); err != nil {
		return nil, err
	}

	funcs := make(map[string]map[string]Func)
	inits := make(map[string]*PackageSpec)
	for _, p := range b.pkgs {
		gp := &pkggraph.Package{
			Name:    p.Name,
			Imports: append([]string(nil), p.Imports...),
			Meta: pkggraph.Metadata{
				LOC: p.LOC, Stars: p.Stars, Contributors: p.Contributors, Origin: p.Origin,
			},
			Consts: p.Consts,
			Vars:   p.Vars,
		}
		for fn := range p.Funcs {
			gp.Funcs = append(gp.Funcs, fn)
		}
		if p.Init != nil {
			gp.InitFunc = "init"
			inits[p.Name] = p
		}
		if err := graph.Add(gp); err != nil {
			return nil, err
		}
		fns := make(map[string]Func, len(p.Funcs))
		for name, fn := range p.Funcs {
			fns[name] = fn
		}
		funcs[p.Name] = fns
	}

	// Auto-declare enclosures for policy-tagged package inits; their
	// closure uses the package whose init it is.
	decls := append([]declInput(nil), b.decls...)
	for _, p := range b.pkgs {
		if p.Init != nil && p.InitPolicy != "" {
			decls = append(decls, declInput{
				name:   "init:" + p.Name,
				pkg:    p.Name,
				policy: p.InitPolicy,
				body:   p.Init,
				uses:   []string{p.Name},
			})
		}
	}

	// Program-wide policies (§3.2): auto-declare one wrapper enclosure
	// per policed package; Task.Call routes non-enclosed calls into it.
	pw := make(map[string]string, len(b.pwPolicies))
	for _, pp := range b.pwPolicies {
		pkg, policy := pp[0], pp[1]
		name := "pw:" + pkg
		if _, dup := pw[pkg]; dup {
			return nil, fmt.Errorf("core: duplicate program-wide policy for %q", pkg)
		}
		pw[pkg] = name
		target := pkg
		decls = append(decls, declInput{
			name:   name,
			pkg:    pkg,
			policy: policy,
			uses:   []string{pkg},
			body: func(t *Task, args ...Value) ([]Value, error) {
				// Inside the wrapper the environment is no longer
				// trusted, so this inner Call dispatches directly.
				fn := args[0].(string)
				return t.Call(target, fn, args[1:]...)
			},
		})
	}

	// Each enclosure's closure becomes a hidden package importing its
	// direct dependencies; its arena holds the body's allocations.
	for _, d := range decls {
		if err := graph.Add(&pkggraph.Package{
			Name:    EnclPkgName(d.name),
			Imports: append([]string(nil), d.uses...),
			Meta:    pkggraph.Metadata{Origin: "enclosure"},
		}); err != nil {
			return nil, fmt.Errorf("enclosure %q: %w", d.name, err)
		}
	}

	if err := graph.Seal(); err != nil {
		return nil, err
	}

	// "Compile-time" policy validation: parse literals, check packages.
	specs := make([]litterbox.EnclosureSpec, 0, len(decls))
	linkDecls := make([]linker.DeclInput, 0, len(decls))
	for i, d := range decls {
		pol, err := ParsePolicy(d.policy)
		if err != nil {
			return nil, fmt.Errorf("enclosure %q: %w", d.name, err)
		}
		for pkg := range pol.Mods {
			if !graph.Has(pkg) {
				return nil, fmt.Errorf("enclosure %q: %w: policy names unknown package %q", d.name, ErrBadPolicy, pkg)
			}
		}
		if !graph.Has(d.pkg) {
			return nil, fmt.Errorf("enclosure %q: declared in unknown package %q", d.name, d.pkg)
		}
		specs = append(specs, litterbox.EnclosureSpec{ID: i + 1, Name: d.name, Pkg: EnclPkgName(d.name), Policy: pol})
		linkDecls = append(linkDecls, linker.DeclInput{Name: d.name, Pkg: d.pkg, Policy: d.policy})
	}

	space := mem.NewAddressSpace(b.spaceCap)
	img, err := linker.Link(graph, linkDecls, space)
	if err != nil {
		return nil, err
	}

	clock := hw.NewClock()
	counters := &hw.Counters{}
	k := kernel.New(space, clock)
	proc := k.NewProc(1000, 4242, DefaultHostIP)

	var backend litterbox.Backend
	switch b.backend {
	case Baseline:
		backend = litterbox.NewBaseline()
	case MPK:
		backend = litterbox.NewMPK(mpk.NewUnit(space))
	case VTX:
		backend = litterbox.NewVTX(vtx.NewMachine(space, clock))
	case CHERI:
		backend = litterbox.NewCHERI(cheri.NewUnit(clock))
	default:
		return nil, fmt.Errorf("core: unknown backend %v", b.backend)
	}

	lb, err := litterbox.Init(litterbox.Config{
		Image:   img,
		Specs:   specs,
		Clock:   clock,
		Kernel:  k,
		Proc:    proc,
		Backend: backend,
		Trace:   b.tracer,
		Audit:   b.audit,
	})
	if err != nil {
		return nil, err
	}

	prog := &Program{
		kind:          b.backend,
		graph:         graph,
		image:         img,
		space:         space,
		clock:         clock,
		counters:      counters,
		kernel:        k,
		proc:          proc,
		lb:            lb,
		funcs:         funcs,
		encls:         make(map[string]*Enclosure),
		pw:            pw,
		engineWorkers: b.engineWorkers,
		ringDepth:     b.ringDepth,
		warmPool:      b.warmPool,
	}
	prog.runtimeCPU = prog.newCPU()
	k.SetScheduler(&prog.q)

	prog.heap = alloc.NewHeap(prog.runtimeMmap, prog.runtimeTransfer, kernel.HeapOwner)

	// Wire up enclosure handles (tokens come from the linked image).
	for i, d := range decls {
		decl := img.Enclosures[i]
		env, err := lb.EnvForEnclosure(decl.ID)
		if err != nil {
			return nil, err
		}
		prog.encls[d.name] = &Enclosure{
			prog:    prog,
			id:      decl.ID,
			name:    d.name,
			pkg:     EnclPkgName(d.name),
			declPkg: d.pkg,
			token:   decl.Token,
			body:    d.body,
			env:     env,
		}
	}

	// Run package init functions in dependency order, enclosed when
	// their import carries a policy.
	order, err := graph.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, name := range order {
		p, ok := inits[name]
		if !ok {
			continue
		}
		err := prog.Run(func(t *Task) error {
			t.pushPkg(name)
			defer t.popPkg()
			if p.InitPolicy != "" {
				_, err := prog.encls["init:"+name].Call(t)
				return err
			}
			_, err := p.Init(t)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("core: init of %s: %w", name, err)
		}
	}
	return prog, nil
}

// DefaultHostIP is the simulated program's own network address.
var DefaultHostIP = uint32(10)<<24 | 1 // 10.0.0.1
