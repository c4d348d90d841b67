package probe

import (
	"fmt"
	"strconv"

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

// World is one backend's instantiation of a WorldSpec: its own graph,
// address space, kernel, and CPU, with a bound fault domain so a
// probe-provoked fault aborts this world's trace position rather than a
// shared program. The four worlds of a trace share one link of the
// spec: each is a copy-on-write fork of the same linked image, so their
// section addresses and bytes are identical at birth — the property
// that makes verdicts comparable — while no write, transfer or dynamic
// import in one world is visible in another.
type World struct {
	Name  string
	Spec  WorldSpec
	LB    *litterbox.LitterBox
	Img   *linker.Image
	CPU   *hw.CPU
	Clock *hw.Clock
	K     *kernel.Kernel
	Dom   *litterbox.FaultDomain
	Cache *litterbox.EnvCache
	Spans []*mem.Section

	stack []frame
}

// frame is one entry of the executor's nesting chain: the environment
// in force and the enclosure whose Prolog entered it (0 = trusted).
type frame struct {
	env  *litterbox.Env
	encl int
}

// spanNames and spanPaths are each pre-mapped heap span's section name
// and the simfs path seeded into it.
var spanNames, spanPaths = indexedNames("probe-span-", NSpans), indexedNames("/probe-", NSpans)

// bogusAddr is a never-mapped address used for EFAULT probes.
const bogusAddr = mem.Addr(1) << 40

// backendNames orders the four worlds; index 0 is the no-enforcement
// baseline, indices 1..3 the enforcing backends.
var backendNames = []string{"baseline", "mpk", "vtx", "cheri"}

// BuildWorld instantiates spec under one backend.
func BuildWorld(spec WorldSpec, name string) (*World, error) {
	return BuildWorldWith(spec, name, nil, nil)
}

// BuildWorldWith is BuildWorld with per-enclosure policy overrides
// (indexed like spec.Encls; nil keeps the spec's policies) and an
// optional audit recorder — non-nil switches the world into
// observe-don't-enforce mode, the privilege analyzer's mining shape.
func BuildWorldWith(spec WorldSpec, name string, policies []litterbox.Policy, audit *obs.Audit) (*World, error) {
	img, err := link(spec)
	if err != nil {
		return nil, err
	}
	return instantiate(spec, img, name, policies, audit)
}

// link validates spec, builds and seals its package graph, and links it
// into a fresh address space — the frontend's one link of the program
// (§5.1), which charges no virtual time.
func link(spec WorldSpec) (*linker.Image, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	g := pkggraph.New()
	for i := 0; i < spec.NPkgs; i++ {
		var imports []string
		for _, j := range spec.Imports[i] {
			imports = append(imports, pkgName(j))
		}
		if err := g.Add(&pkggraph.Package{
			Name:    pkgName(i),
			Imports: imports,
			Funcs:   []string{"f"},
			Vars:    map[string]int{"v": 64},
			Consts:  map[string][]byte{"c": []byte("const")},
		}); err != nil {
			return nil, err
		}
	}
	if err := g.AddReserved(&pkggraph.Package{Name: pkggraph.UserPkg}); err != nil {
		return nil, err
	}
	if err := g.AddReserved(&pkggraph.Package{Name: pkggraph.SuperPkg}); err != nil {
		return nil, err
	}
	if err := g.Seal(); err != nil {
		return nil, err
	}
	var decls []linker.DeclInput
	for i, es := range spec.Encls {
		decls = append(decls, linker.DeclInput{
			Name: "e" + strconv.Itoa(i+1), Pkg: pkgName(es.Pkg), Policy: "probe",
		})
	}
	return linker.Link(g, decls, mem.NewAddressSpace(0))
}

// instantiate loads the linked image under one backend, as LitterBox's
// Init loads the executable (checking its sections and metadata), then
// binds a CPU and fault domain and maps the heap spans into img's space.
func instantiate(spec WorldSpec, img *linker.Image, name string, policies []litterbox.Policy, audit *obs.Audit) (*World, error) {
	space := img.Space
	clock := hw.NewClock()
	k := kernel.New(space, clock)
	proc := k.NewProc(1, 1, 1)
	// The probe harness is single-threaded: a blocking read on a
	// data-less pipe or an accept on an empty backlog would deadlock the
	// sweep. Non-blocking mode turns those into deterministic EAGAINs,
	// identically in all four worlds.
	proc.SetNonBlocking(true)

	var backend litterbox.Backend
	switch name {
	case "baseline":
		backend = litterbox.NewBaseline()
	case "mpk":
		backend = litterbox.NewMPK(mpk.NewUnit(space))
	case "vtx":
		backend = litterbox.NewVTX(vtx.NewMachine(space, clock))
	case "cheri":
		backend = litterbox.NewCHERI(cheri.NewUnit(clock))
	default:
		return nil, fmt.Errorf("probe: unknown backend %q", name)
	}

	var specs []litterbox.EnclosureSpec
	for i, es := range spec.Encls {
		pol := litterbox.Policy{
			Mods: map[string]litterbox.AccessMod{},
			Cats: es.Cats,
		}
		if es.Connect != nil {
			pol.ConnectAllow = append([]uint32{}, es.Connect...)
		}
		for p, m := range es.Mods {
			pol.Mods[pkgName(p)] = m
		}
		if policies != nil {
			pol = policies[i]
			if pol.Mods == nil {
				pol.Mods = map[string]litterbox.AccessMod{}
			}
		}
		specs = append(specs, litterbox.EnclosureSpec{
			ID: i + 1, Name: "e" + strconv.Itoa(i+1), Pkg: pkgName(es.Pkg), Policy: pol,
		})
	}

	lb, err := litterbox.Init(litterbox.Config{
		Image: img, Clock: clock, Kernel: k, Proc: proc,
		Backend: backend, Specs: specs, Audit: audit,
	})
	if err != nil {
		return nil, err
	}

	w, err := bindWorld(name, spec, lb)
	if err != nil {
		return nil, err
	}

	// Pre-map the heap spans, seed each with a file path for the
	// syscall ops, and transfer every span to its starting owner. The
	// transfer also materialises backend page state for the span — a
	// section mapped after Init is otherwise invisible to the page-table
	// backends while MPK's default key would let trusted touch it.
	for i := 0; i < NSpans; i++ {
		sec, err := space.Map(spanNames[i], kernel.HeapOwner,
			mem.KindHeap, mem.PageSize, mem.PermR|mem.PermW)
		if err != nil {
			return nil, err
		}
		if err := space.WriteAt(sec.Base, []byte(spanPaths[i])); err != nil {
			return nil, err
		}
		w.Spans = append(w.Spans, sec)
		owner := kernel.HeapOwner
		if spec.SpanOwners[i] >= 0 {
			owner = pkgName(spec.SpanOwners[i])
		}
		if err := lb.Transfer(w.CPU, sec, owner); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// bindWorld wraps an initialised LitterBox in a probe World: a fresh
// CPU with its own injector, a fault domain bound as the worker, the
// trusted environment installed, and an empty env cache.
func bindWorld(name string, spec WorldSpec, lb *litterbox.LitterBox) (*World, error) {
	cpu := hw.NewCPU(lb.Clock)
	cpu.Inj = hw.NewInjector()
	dom := &litterbox.FaultDomain{}
	lb.BindWorker(lb.Clock, &litterbox.CPUState{Proc: lb.Proc, Domain: dom, Name: "probe-" + name})
	if err := lb.InstallEnv(cpu, lb.Trusted()); err != nil {
		return nil, err
	}
	return &World{
		Name: name, Spec: spec, LB: lb, Img: lb.Image,
		CPU: cpu, Clock: lb.Clock, K: lb.Kernel, Dom: dom,
		Cache: litterbox.NewEnvCache(),
		stack: []frame{{env: lb.Trusted(), encl: 0}},
	}, nil
}

// validate rejects a spec whose indices fall outside its own package
// list, so a spec from the wire (a migration checkpoint) cannot index
// past the world it describes.
func (spec WorldSpec) validate() error {
	pkg := func(i int) bool { return i >= 0 && i < spec.NPkgs }
	if len(spec.Imports) != spec.NPkgs {
		return fmt.Errorf("probe: spec: %d import lists for %d packages", len(spec.Imports), spec.NPkgs)
	}
	for i, imports := range spec.Imports {
		for _, j := range imports {
			if j < 0 || j >= i {
				return fmt.Errorf("probe: spec: p%d imports p%d, want an earlier package", i, j)
			}
		}
	}
	for e, es := range spec.Encls {
		if !pkg(es.Pkg) {
			return fmt.Errorf("probe: spec: enclosure e%d declared in unknown package %d", e+1, es.Pkg)
		}
		for p := range es.Mods {
			if !pkg(p) {
				return fmt.Errorf("probe: spec: enclosure e%d modifies unknown package %d", e+1, p)
			}
		}
	}
	if len(spec.SpanOwners) != NSpans {
		return fmt.Errorf("probe: spec: %d span owners, want %d", len(spec.SpanOwners), NSpans)
	}
	for i, owner := range spec.SpanOwners {
		if owner != -1 && !pkg(owner) {
			return fmt.Errorf("probe: spec: span %d owned by unknown package %d", i, owner)
		}
	}
	return nil
}

// CheckOp rejects an operation that names something this world does not
// have — an enclosure ID, span, buffer slot or package out of range, or
// an epilog below the trusted base frame — before ExecOp indexes it. A
// generated trace never fails it; a journal from the wire might.
func (w *World) CheckOp(op Op) error {
	known := func(pkg string) bool { return w.Img.Layout(pkg) != nil }
	buf := func(slot int) bool { return slot < len(w.Spans) || known(pkgName(slot-len(w.Spans))) }
	span := func(i int) bool { return i >= 0 && i < len(w.Spans) }
	switch op.Kind {
	case OpProlog, OpDynImport:
		if op.Encl < 1 || op.Encl > len(w.Img.Enclosures) {
			return fmt.Errorf("probe: %s: no enclosure e%d", op, op.Encl)
		}
	case OpEpilog:
		if len(w.stack) < 2 {
			return fmt.Errorf("probe: epilog below the base frame")
		}
	case OpRead, OpWrite:
		if op.Span >= 0 && !span(op.Span) || op.Span < 0 && !known(op.Pkg) {
			return fmt.Errorf("probe: %s: no such target", op)
		}
	case OpExec:
		if !known(op.Pkg) {
			return fmt.Errorf("probe: %s: no such package", op)
		}
	case OpSyscall:
		if !buf(op.Buf) {
			return fmt.Errorf("probe: %s: no buffer slot %d", op, op.Buf)
		}
	case OpBatch:
		for _, sub := range op.Batch {
			if !buf(sub.Buf) {
				return fmt.Errorf("probe: batch entry %s: no buffer slot %d", sub, sub.Buf)
			}
		}
	case OpTransfer:
		if !span(op.Span) || op.Pkg != "" && !known(op.Pkg) {
			return fmt.Errorf("probe: %s: no such span or package", op)
		}
	}
	return nil
}

// BuildWorlds instantiates the spec under all four backends, baseline
// first. The spec is linked once; each backend's world runs on its own
// copy-on-write fork of that image (address space, graph and image
// tables), and Init checks every fork as it would a fresh link.
func BuildWorlds(spec WorldSpec) ([]*World, error) {
	worlds, _, err := buildWorlds(spec)
	return worlds, err
}

// buildWorlds is BuildWorlds that also returns the linked image's
// space, the root of the copy-on-write family the worlds' spaces fork,
// so a caller that owns the worlds can release the family with them.
func buildWorlds(spec WorldSpec) ([]*World, *mem.AddressSpace, error) {
	img, err := link(spec)
	if err != nil {
		return nil, nil, err
	}
	worlds := make([]*World, 0, len(backendNames))
	for _, name := range backendNames {
		space, secMap := img.Space.CloneCoW()
		w, err := instantiate(spec, img.CloneWith(space, img.Graph.Share(), secMap), name, nil, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("probe: building %s world: %w", name, err)
		}
		worlds = append(worlds, w)
	}
	return worlds, img.Space, nil
}

// release gives the page arrays of a trace's worlds back for the next
// trace to reuse: template is the family's root, and every world's
// space one of its forks. No world may be used afterwards.
func release(template *mem.AddressSpace, worlds ...*World) {
	forks := make([]*mem.AddressSpace, len(worlds))
	for i, w := range worlds {
		forks[i] = w.LB.Space
	}
	if err := mem.ReleaseFamily(template, forks...); err != nil {
		panic(err) // link maps every image into a new space
	}
}

// top returns the current frame.
func (w *World) top() frame { return w.stack[len(w.stack)-1] }

// Frames returns the enclosure IDs of the nesting chain beyond the
// trusted base frame — a migration checkpoint's stack description, and
// the value a restore must reproduce.
func (w *World) Frames() []int {
	out := make([]int, 0, len(w.stack)-1)
	for _, fr := range w.stack[1:] {
		out = append(out, fr.encl)
	}
	return out
}

// PushFrame records an entered environment on the executor stack — the
// replay-side mirror of the runner's push after a model-approved
// Prolog.
func (w *World) PushFrame(env *litterbox.Env, encl int) {
	w.stack = append(w.stack, frame{env: env, encl: encl})
}

// PopFrame removes the top frame — the replay-side mirror of an Epilog.
func (w *World) PopFrame() { w.stack = w.stack[:len(w.stack)-1] }

// bufAddr resolves a symbolic buffer slot to this world's address.
func (w *World) bufAddr(slot int) mem.Addr {
	if slot < 0 {
		return bogusAddr
	}
	if slot < len(w.Spans) {
		return w.Spans[slot].Base
	}
	return w.Img.Layout(pkgName(slot - len(w.Spans))).Data.Base
}

// argsFor assembles the concrete argument vector for a syscall op.
// Path lengths are fixed at 8 bytes — the length of the "/probe-N"
// strings seeded into the spans — so opens through a span slot hit real
// simfs paths while other slots produce deterministic lookup failures.
func (w *World) argsFor(op Op) [6]uint64 {
	buf := uint64(w.bufAddr(op.Buf))
	switch op.Nr {
	case kernel.NrRead, kernel.NrRecv, kernel.NrWrite, kernel.NrSend:
		return [6]uint64{uint64(op.FD), buf, op.Len}
	case kernel.NrOpen:
		return [6]uint64{buf, 8, uint64(op.Flags)}
	case kernel.NrUnlink, kernel.NrMkdir, kernel.NrStat:
		return [6]uint64{buf, 8}
	case kernel.NrReadDir:
		return [6]uint64{buf, 8, buf + 128, op.Len}
	case kernel.NrBind, kernel.NrConnect:
		return [6]uint64{uint64(op.FD), uint64(op.Host), uint64(op.Port)}
	case kernel.NrListen, kernel.NrAccept, kernel.NrShutdown, kernel.NrClose, kernel.NrDup:
		return [6]uint64{uint64(op.FD)}
	case kernel.NrLseek:
		return [6]uint64{uint64(op.FD), op.Len, 0}
	case kernel.NrGetrandom:
		return [6]uint64{buf, op.Len}
	case kernel.NrMprotect:
		return [6]uint64{buf, mem.PageSize, 3}
	default: // socket, getuid, getpid, pipe: no arguments
		return [6]uint64{}
	}
}
