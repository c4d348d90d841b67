package litterbox

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/linker"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/obs"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
	"github.com/litterbox-project/enclosure/internal/ring"
)

const (
	userName  = pkggraph.UserPkg
	superName = pkggraph.SuperPkg
)

// Errors reported by the framework.
var (
	ErrBadToken    = errors.New("litterbox: call-site verification failed")
	ErrUnknownEncl = errors.New("litterbox: unknown enclosure")
	ErrUnknownPkg  = errors.New("litterbox: policy names unknown package")
	ErrAborted     = errors.New("litterbox: program aborted by fault")
	ErrEscalation  = errors.New("litterbox: switch would escalate privileges")
	ErrSuperGrant  = errors.New("litterbox: policy grants access to litterbox/super")
	ErrOverlap     = errors.New("litterbox: sections overlap")
	ErrMisaligned  = errors.New("litterbox: section not page aligned")

	// ErrInjectedTransfer reports a transfer interrupted by an armed
	// fault injector (hw.Injector.ArmTransferFault). Backend page state
	// is rolled back before the error propagates.
	ErrInjectedTransfer = errors.New("litterbox: transfer interrupted by fault injection")
)

// transferInterrupted consults the CPU's fault injector exactly once
// per backend Transfer call — the counting contract every backend obeys
// so an armed interruption fires on the same logical transfer no matter
// which mechanism enforces it.
func transferInterrupted(cpu *hw.CPU) bool {
	return cpu != nil && cpu.Inj != nil && cpu.Inj.TransferFault()
}

// Fault is a protection violation: an access outside the memory view or
// a filtered system call. Per the paper it stops the closure and aborts
// the program; the enclosure runtime converts it into a program-level
// error the host harness observes.
//
// A fault keeps what it needs to describe itself, and Detail renders the
// text only when someone reads it: most faults (every denied probe
// access) are counted and reset, never printed.
type Fault struct {
	Env *Env
	Op  string // "read", "write", "exec", "syscall", "switch"
	// Note is the detail text of a fault that names it outright, such
	// as the system call a filter denied.
	Note string
	// Addr and Size locate a denied data access (a "read" or "write").
	Addr  mem.Addr
	Size  uint64
	Cause error
}

// Detail returns the fault's detail text: Note when set; else, for a
// denied read or write, "addr+size: cause"; else the cause's text.
func (f *Fault) Detail() string {
	switch {
	case f.Note != "":
		return f.Note
	case f.Op == "read" || f.Op == "write":
		return fmt.Sprintf("%s+%d: %v", f.Addr, f.Size, f.Cause)
	case f.Cause != nil:
		return f.Cause.Error()
	}
	return ""
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("litterbox: fault in %s: %s %s", f.Env, f.Op, f.Detail())
}

// Unwrap exposes the backend-level cause.
func (f *Fault) Unwrap() error { return f.Cause }

// Gate is the call-site check a Prolog or Epilog hands to
// Backend.Switch, as data rather than a closure: the token the call
// site presents for an enclosure, checked against the .verif table.
// The zero Gate checks nothing; the trusted scheduler's Execute and
// InstallEnv switches carry no token.
type Gate struct {
	verif map[int]uint64
	encl  int
	token uint64
}

// Check returns ErrBadToken when the gate's token is not the one .verif
// records for its enclosure.
func (g Gate) Check() error {
	if g.verif != nil && g.verif[g.encl] != g.token {
		return ErrBadToken
	}
	return nil
}

// Backend is one hardware enforcement mechanism. LitterBox
// differentiates between the selected hardware only for: creating and
// enforcing execution environments, extending a package's arena, and
// performing switches (§5.3).
type Backend interface {
	// Name identifies the backend ("baseline", "mpk", "vtx").
	Name() string
	// Setup initialises hardware state for the computed environments.
	Setup(lb *LitterBox) error
	// CreateEnv materialises hardware state for one (possibly lazily
	// created intersection) environment.
	CreateEnv(e *Env) error
	// Switch moves the cpu from environment `from` into `to`. gate is
	// the call-site check; the backend runs gate.Check inside its
	// privileged path.
	Switch(cpu *hw.CPU, from, to *Env, gate Gate) error
	// CheckAccess enforces the current hardware state on a data access.
	CheckAccess(cpu *hw.CPU, addr mem.Addr, size uint64, write bool) error
	// CheckExec enforces instruction-fetch rights for a call into pkg
	// at the function's entry address.
	CheckExec(cpu *hw.CPU, env *Env, pkg string, entry mem.Addr) error
	// Transfer retags a heap span as belonging to pkg's arena.
	Transfer(cpu *hw.CPU, sec *mem.Section, toPkg string) error
	// Syscall performs a system call under env's filter, in kernel
	// process context p (the caller resolved it with procOf).
	Syscall(cpu *hw.CPU, p *kernel.Proc, env *Env, nr kernel.Nr, args [6]uint64) (uint64, kernel.Errno)
	// SyscallBatch drains one submission-ring batch under env's filter,
	// charging the batch's single trap (and, on LB_VTX, its single
	// VM exit) once instead of per entry. Entries execute in submission
	// order; a completion is written into out for every entry that
	// executed. Execution stops at the first filter denial, whose index
	// is returned (-1 when the whole batch executed); the denied entry's
	// completion is left for the caller, who owns the fault/audit
	// decision. Entries marked Runtime dispatch unfiltered, as a
	// sequential SyscallGateway request with Runtime set does.
	SyscallBatch(cpu *hw.CPU, p *kernel.Proc, env *Env, entries []ring.Entry, out []ring.Completion) int
}

// Config assembles everything Init needs.
type Config struct {
	Image   *linker.Image
	Specs   []EnclosureSpec
	Clock   *hw.Clock
	Kernel  *kernel.Kernel
	Proc    *kernel.Proc
	Backend Backend

	// Trace, when non-nil, receives a structured event for every
	// enforcement operation. Tracing is host-side observability: it
	// charges nothing to the simulated program.
	Trace *obs.Trace
	// Audit, when non-nil, switches the program into observe-don't-
	// enforce mode: policy violations are recorded into it (and traced
	// as "violation" events) instead of faulting, and the recorder can
	// afterwards derive the minimal policy the run actually needed.
	// Call-site (token) verification still faults — audit mode relaxes
	// policies, never the integrity of the switch mechanism.
	Audit *obs.Audit
}

// LitterBox is one program's enforcement state. It is used under the
// program's run token, so only aborted and fault, which host code polls
// while the program runs, are atomic.
type LitterBox struct {
	Image  *linker.Image
	Space  *mem.AddressSpace
	Clock  *hw.Clock
	Kernel *kernel.Kernel
	Proc   *kernel.Proc

	backend Backend
	graph   *pkggraph.Graph

	nextEnv EnvID
	trusted *Env
	verif   map[int]uint64 // enclosure ID → expected call-site token

	// snap is the current immutable env state (see snapshot.go).
	snap *envSnapshot
	// birth is a clone's snapshot as CloneInto built it; ResetTo
	// re-publishes it (nil on LitterBoxes not made by CloneInto).
	birth *envSnapshot

	// cpus heads the worker binding table, a list of *CPUState keyed
	// by worker clock (see domain.go).
	cpus *CPUState

	// Meta-package clustering results (for introspection and LB_MPK).
	// metaShared marks both as aliased with a snapshot template or
	// clone: a dynamic import copies them before writing.
	metaPkgs   [][]string
	pkgToMeta  map[string]int
	metaShared bool

	aborted atomic.Bool
	fault   atomic.Pointer[Fault]
	trace   *obs.Trace // nil when disabled
	audit   *obs.Audit // nil when enforcing

	// ringSeq routes SyscallBatch through the sequential per-entry
	// gateway instead of the backend's amortized drain — the reference
	// arm the probe sweep's ring-off runs diff against.
	ringSeq bool

	// enclName maps enclosure IDs to names for event attribution.
	enclName map[int]string
}

// Init validates the image, computes every enclosure's memory view,
// clusters packages into meta-packages, and initialises the backend.
func Init(cfg Config) (*LitterBox, error) {
	img := cfg.Image
	lb := &LitterBox{
		Image:    img,
		Space:    img.Space,
		Clock:    cfg.Clock,
		Kernel:   cfg.Kernel,
		Proc:     cfg.Proc,
		backend:  cfg.Backend,
		graph:    img.Graph,
		verif:    make(map[int]uint64),
		audit:    cfg.Audit,
		trace:    cfg.Trace,
		enclName: make(map[int]string),
	}
	snap := &envSnapshot{
		byEncl: make(map[int]EnvID),
		inter:  make(map[[2]EnvID]*Env),
	}

	if err := lb.validateSections(); err != nil {
		return nil, err
	}

	// Cross-check the .pkgs section — the executable's own description
	// of its packages, read back from simulated memory — against the
	// graph and the mapped sections (§4.2: Init "takes a description of
	// the program's packages and enclosures").
	if err := lb.validatePkgsSection(); err != nil {
		return nil, err
	}

	// Load the verification list from the image's .verif section.
	verifs, err := img.ReadVerif()
	if err != nil {
		return nil, fmt.Errorf("litterbox: reading .verif: %w", err)
	}
	for _, v := range verifs {
		lb.verif[v.EnclID] = v.Token
	}

	// The trusted environment.
	lb.trusted = &Env{ID: TrustedEnv, Name: "trusted", Trusted: true, Cats: kernel.CatAll}
	snap.envs = append(snap.envs, lb.trusted)
	lb.nextEnv = 1

	// Compute each enclosure's complete memory view.
	for _, spec := range cfg.Specs {
		env, err := lb.computeView(spec)
		if err != nil {
			return nil, err
		}
		env.ID = lb.nextEnv
		lb.nextEnv++
		snap.envs = append(snap.envs, env)
		snap.byEncl[spec.ID] = env.ID
		lb.enclName[spec.ID] = spec.Name
	}
	// Publish before clustering and backend setup: both resolve envs
	// through the snapshot.
	lb.snap = snap

	// Cluster packages across all memory views into meta-packages.
	lb.cluster()

	if err := lb.backend.Setup(lb); err != nil {
		return nil, err
	}

	lb.setTrace(lb.trace)

	lb.emit(nil, obs.Event{
		Kind:   obs.KindInit,
		Detail: fmt.Sprintf("%d environments, %d meta-packages", len(snap.envs), len(lb.metaPkgs)),
	})
	return lb, nil
}

// validateSections enforces the layout assumptions (§2.3/§5.3):
// page-aligned, non-overlapping sections.
func (lb *LitterBox) validateSections() error {
	secs := lb.Space.Sections()
	var prevEnd mem.Addr
	for _, s := range secs {
		if !s.Base.PageAligned() || s.Size%mem.PageSize != 0 {
			return fmt.Errorf("%w: %s", ErrMisaligned, s)
		}
		if s.Base < prevEnd {
			return fmt.Errorf("%w: %s", ErrOverlap, s)
		}
		prevEnd = s.End()
	}
	return nil
}

// validatePkgsSection verifies the .pkgs metadata against the live
// graph and address space: every described package exists, and every
// described section is mapped where the descriptor says with the
// rights it claims. A corrupted image fails Init.
func (lb *LitterBox) validatePkgsSection() error {
	descs, err := lb.Image.ReadPkgLayout()
	if err != nil {
		return fmt.Errorf("litterbox: reading .pkgs: %w", err)
	}
	for _, d := range descs {
		if !lb.graph.Has(d.Name) {
			return fmt.Errorf("litterbox: .pkgs describes unknown package %q", d.Name)
		}
		for _, sd := range d.Sections {
			sec := lb.Space.SectionAt(sd.Base)
			if sec == nil || sec.Base != sd.Base || sec.Size != sd.Size {
				return fmt.Errorf("litterbox: .pkgs section %s of %s not mapped as described", sd.Name, d.Name)
			}
			if uint8(sec.Perm) != sd.Perm || sec.Pkg != d.Name {
				return fmt.Errorf("litterbox: .pkgs section %s of %s disagrees with the image", sd.Name, d.Name)
			}
		}
	}
	return nil
}

// computeView builds the enclosure's environment: the default view is
// the declaring package plus its natural dependencies at full access,
// plus LitterBox's user package; policy modifiers extend or restrict it.
// super may never be granted.
func (lb *LitterBox) computeView(spec EnclosureSpec) (*Env, error) {
	view := map[string]AccessMod{
		spec.Pkg: ModRWX,
		userName: ModRWX,
	}
	deps, err := lb.graph.NaturalDeps(spec.Pkg)
	if err != nil {
		return nil, err
	}
	for _, d := range deps {
		if d == superName {
			continue
		}
		view[d] = ModRWX
	}
	for pkg, mod := range spec.Policy.Mods {
		if pkg == superName {
			return nil, fmt.Errorf("%w: enclosure %q", ErrSuperGrant, spec.Name)
		}
		if !lb.graph.Has(pkg) {
			return nil, fmt.Errorf("%w: %q in enclosure %q", ErrUnknownPkg, pkg, spec.Name)
		}
		if mod == ModU {
			delete(view, pkg)
			if pkg == userName {
				return nil, fmt.Errorf("litterbox: enclosure %q unmaps litterbox/user", spec.Name)
			}
			continue
		}
		view[pkg] = mod
	}
	return &Env{
		Name:         spec.Name,
		View:         view,
		Cats:         spec.Policy.Cats,
		ConnectAllow: cloneHosts(spec.Policy.ConnectAllow),
	}, nil
}

// cluster groups packages whose access-modifier vector is identical
// across every environment; each group is a meta-package and, under
// LB_MPK, receives one protection key (§5.3).
func (lb *LitterBox) cluster() {
	envs := lb.snap.envs
	sig := make(map[string]string)
	for _, name := range lb.graph.Names() {
		s := ""
		for _, e := range envs {
			s += e.ModOf(name).String() + "|"
		}
		sig[name] = s
	}
	bySig := make(map[string][]string)
	for _, name := range lb.graph.Names() { // Names() is sorted: deterministic
		bySig[sig[name]] = append(bySig[sig[name]], name)
	}
	// Deterministic meta-package order: by first member name.
	var sigs []string
	seen := map[string]bool{}
	for _, name := range lb.graph.Names() {
		if !seen[sig[name]] {
			seen[sig[name]] = true
			sigs = append(sigs, sig[name])
		}
	}
	lb.metaPkgs = nil
	lb.pkgToMeta = make(map[string]int)
	for i, s := range sigs {
		group := bySig[s]
		lb.metaPkgs = append(lb.metaPkgs, group)
		for _, p := range group {
			lb.pkgToMeta[p] = i
		}
	}
}

// MetaPackages returns the clustering result: each element is one
// meta-package's member list.
func (lb *LitterBox) MetaPackages() [][]string {
	out := make([][]string, len(lb.metaPkgs))
	for i, g := range lb.metaPkgs {
		out[i] = append([]string(nil), g...)
	}
	return out
}

// MetaOf returns the meta-package index of a package (-1 if unknown).
func (lb *LitterBox) MetaOf(pkg string) int {
	if i, ok := lb.pkgToMeta[pkg]; ok {
		return i
	}
	return -1
}

// Trusted returns the trusted environment.
func (lb *LitterBox) Trusted() *Env { return lb.trusted }

// EnvForEnclosure returns the environment computed for an enclosure ID.
func (lb *LitterBox) EnvForEnclosure(id int) (*Env, error) {
	s := lb.snap
	eid, ok := s.byEncl[id]
	if !ok {
		return nil, fmt.Errorf("%w: id=%d", ErrUnknownEncl, id)
	}
	return s.envs[eid], nil
}

// Env returns an environment by its ID.
func (lb *LitterBox) Env(id EnvID) (*Env, bool) {
	s := lb.snap
	if id < 0 || int(id) >= len(s.envs) {
		return nil, false
	}
	return s.envs[id], true
}

// EnvsSnapshot returns all current environments (trusted, per-enclosure,
// and materialised intersections) in ID order. The returned slice is
// the snapshot's own immutable backing array — callers iterate it, they
// must not mutate it. Allocation-free: the VTX and CHERI backends call
// this on every Transfer.
func (lb *LitterBox) EnvsSnapshot() []*Env { return lb.snap.envs }

// Backend exposes the active backend (for stats and tests).
func (lb *LitterBox) Backend() Backend { return lb.backend }

// Graph exposes the program's package-dependence graph.
func (lb *LitterBox) Graph() *pkggraph.Graph { return lb.graph }

// Aborted reports whether a fault has aborted the program, and the fault.
func (lb *LitterBox) Aborted() (*Fault, bool) {
	if !lb.aborted.Load() {
		return nil, false
	}
	return lb.fault.Load(), true
}

// RaiseFault records a protection violation and aborts the faulting
// CPU's domain when one is bound (a worker CPU under the engine), or
// the whole program otherwise — the paper's single-core semantics.
func (lb *LitterBox) RaiseFault(cpu *hw.CPU, f *Fault) *Fault {
	cpu.Counters.Faults++
	if lb.tracing() {
		lb.emit(cpu, obs.Event{Kind: obs.KindFault, Env: envName(f.Env), Detail: f.Op + " " + f.Detail()})
	}
	if d := lb.DomainFor(cpu); d != nil {
		d.faults.Add(1)
		d.fault.CompareAndSwap(nil, f)
		d.aborted.Store(true)
		return f
	}
	lb.fault.CompareAndSwap(nil, f)
	lb.aborted.Store(true)
	return f
}

// targetEnv resolves the environment a switch into enclosure env `to`
// enters from `from`: the intersection, materialised lazily and cached.
// Entering can only restrict; returning to the caller's environment is
// always permitted because Epilog restores the saved `from`.
func (lb *LitterBox) targetEnv(from, to *Env) (*Env, error) {
	if from.Trusted {
		return to, nil
	}
	if to.Trusted {
		// Only the runtime (Execute) may schedule back to trusted; a
		// Prolog into trusted would be an escalation.
		return nil, ErrEscalation
	}
	if to.MoreRestrictiveThan(from) {
		return to, nil
	}
	key := [2]EnvID{from.ID, to.ID}
	if e, ok := lb.snap.inter[key]; ok {
		return e, nil
	}
	e := intersect(from, to)
	if err := lb.backend.CreateEnv(e); err != nil {
		// Nothing is cached, so the next Prolog of this pair retries: a
		// transient backend failure (key pressure, table exhaustion) must
		// not poison the nesting pair forever. The EnvID is only
		// allocated on success, so none leaks here.
		return nil, err
	}
	e.ID = lb.nextEnv
	lb.nextEnv++
	// Append keeps the snapshot's envs slice dense: e.ID is the new
	// index because IDs are allocated in append order.
	lb.publish(func(s *envSnapshot) {
		s.envs = append(s.envs, e)
		s.inter[key] = e
	})
	return e, nil
}

// Prolog enters enclosure enclID's execution environment from `from`,
// verifying the call-site token against the .verif specification. It
// returns the environment now in force (the intersection when nested).
func (lb *LitterBox) Prolog(cpu *hw.CPU, from *Env, enclID int, token uint64) (*Env, error) {
	return lb.PrologWith(cpu, from, enclID, token, nil)
}

// PrologWith is Prolog with a per-worker environment cache: once a
// (from, enclosure) pair has been resolved, subsequent entries on the
// same worker skip the program-wide tables entirely.
func (lb *LitterBox) PrologWith(cpu *hw.CPU, from *Env, enclID int, token uint64, cache *EnvCache) (*Env, error) {
	st := lb.stateFor(cpu)
	if _, dead := lb.abortedIn(st); dead {
		return nil, ErrAborted
	}
	var target *Env
	epoch := lb.snap.viewGen
	if cache != nil {
		target = cache.lookup(from.ID, enclID, epoch)
	}
	if target == nil {
		enclEnv, err := lb.EnvForEnclosure(enclID)
		if err != nil {
			return nil, err
		}
		target, err = lb.targetEnv(from, enclEnv)
		if err != nil {
			return nil, err
		}
		if cache != nil {
			cache.store(from.ID, enclID, target, epoch)
		}
	}
	start := cpu.Clock.Now()
	if err := lb.backend.Switch(cpu, from, target, Gate{lb.verif, enclID, token}); err != nil {
		return nil, lb.RaiseFault(cpu, &Fault{Env: from, Op: "switch", Cause: err})
	}
	cpu.Counters.Switches++
	if lb.tracing() {
		lb.emit(cpu, obs.Event{
			Kind: obs.KindProlog, Env: envName(target), Encl: lb.enclName[enclID],
			Cost: cpu.Clock.Now() - start, Worker: st.name(),
		})
	}
	return target, nil
}

// Epilog returns from an enclosure to the caller's saved environment.
// Like PrologWith it refuses to run on an aborted CPU: a faulted worker
// must not keep switching environments (and so keep executing) on the
// way out of its nesting chain.
func (lb *LitterBox) Epilog(cpu *hw.CPU, cur, back *Env, enclID int, token uint64) error {
	st := lb.stateFor(cpu)
	if _, dead := lb.abortedIn(st); dead {
		return ErrAborted
	}
	start := cpu.Clock.Now()
	if err := lb.backend.Switch(cpu, cur, back, Gate{lb.verif, enclID, token}); err != nil {
		return lb.RaiseFault(cpu, &Fault{Env: cur, Op: "switch", Cause: err})
	}
	cpu.Counters.Switches++
	if lb.tracing() {
		lb.emit(cpu, obs.Event{
			Kind: obs.KindEpilog, Env: envName(back), Encl: lb.enclName[enclID],
			Cost: cpu.Clock.Now() - start, Worker: st.name(),
		})
	}
	return nil
}

// InstallEnv unconditionally installs env's hardware state on a fresh
// CPU — the scheduler's task-creation half of Execute. Unlike Execute
// it never short-circuits: a new hardware thread boots with an
// indeterminate PKRU/CR3 and must be placed into its environment.
func (lb *LitterBox) InstallEnv(cpu *hw.CPU, env *Env) error {
	if err := lb.backend.Switch(cpu, nil, env, Gate{}); err != nil {
		return lb.RaiseFault(cpu, &Fault{Env: env, Op: "switch", Cause: err})
	}
	cpu.Counters.Switches++
	return nil
}

// Execute is the scheduler hook: it installs env on the cpu when the
// runtime resumes a goroutine bound to a different execution
// environment (§4.2). No token is needed — the scheduler is trusted and
// the transition was established by an earlier verified Prolog.
func (lb *LitterBox) Execute(cpu *hw.CPU, from, to *Env) error {
	if from == to {
		return nil
	}
	start := cpu.Clock.Now()
	if err := lb.backend.Switch(cpu, from, to, Gate{}); err != nil {
		return lb.RaiseFault(cpu, &Fault{Env: from, Op: "switch", Cause: err})
	}
	cpu.Counters.Switches++
	if lb.tracing() {
		lb.emit(cpu, obs.Event{
			Kind: obs.KindExecute, Env: envName(to),
			Cost: cpu.Clock.Now() - start, Detail: "scheduler resume",
		})
	}
	return nil
}

// auditAccess records a denied memory access instead of faulting: the
// owning package and required access level go into the audit recorder,
// and a "violation" event into the trace. Returns true when the access
// should proceed (audit mode is on).
func (lb *LitterBox) auditAccess(cpu *hw.CPU, env *Env, op string, addr mem.Addr, pkg string, level int, cause error) bool {
	if lb.audit == nil || env == nil || env.Trusted {
		return false
	}
	if pkg == "" {
		if sec := lb.Space.SectionAt(addr); sec != nil {
			pkg = sec.Pkg
		}
	}
	lb.audit.RecordAccess(envName(env), pkg, level)
	lb.emit(cpu, obs.Event{
		Kind: obs.KindViolation, Env: envName(env), Pkg: pkg,
		Verdict: obs.VerdictAudit, Detail: fmt.Sprintf("%s %v", op, cause),
	})
	return true
}

// CheckRead enforces the memory view on a data read.
func (lb *LitterBox) CheckRead(cpu *hw.CPU, env *Env, addr mem.Addr, size uint64) error {
	if _, dead := lb.AbortedOn(cpu); dead {
		return ErrAborted
	}
	if err := lb.backend.CheckAccess(cpu, addr, size, false); err != nil {
		if lb.auditAccess(cpu, env, "read", addr, "", obs.NeedRead, err) {
			return nil
		}
		return lb.RaiseFault(cpu, &Fault{Env: env, Op: "read", Addr: addr, Size: size, Cause: err})
	}
	return nil
}

// CheckWrite enforces the memory view on a data write.
func (lb *LitterBox) CheckWrite(cpu *hw.CPU, env *Env, addr mem.Addr, size uint64) error {
	if _, dead := lb.AbortedOn(cpu); dead {
		return ErrAborted
	}
	if err := lb.backend.CheckAccess(cpu, addr, size, true); err != nil {
		if lb.auditAccess(cpu, env, "write", addr, "", obs.NeedWrite, err) {
			return nil
		}
		return lb.RaiseFault(cpu, &Fault{Env: env, Op: "write", Addr: addr, Size: size, Cause: err})
	}
	return nil
}

// CheckExec enforces execute rights for a call into pkg at entry.
// Enforcement is entirely the backend's: VT-x and CHERI check the fetch
// in hardware, MPK relies on the compiled-in call gates (its backend
// hook), and the baseline — vanilla, uninstrumented code — checks
// nothing. The probe engine's differential oracle flushed out the
// previous shape, where a software view check in this common path made
// even the no-enforcement baseline raise exec faults (and charged every
// backend for a check VT-x and CHERI already perform in hardware).
func (lb *LitterBox) CheckExec(cpu *hw.CPU, env *Env, pkg string, entry mem.Addr) error {
	if _, dead := lb.AbortedOn(cpu); dead {
		return ErrAborted
	}
	if err := lb.backend.CheckExec(cpu, env, pkg, entry); err != nil {
		if lb.auditAccess(cpu, env, "exec", entry, pkg, obs.NeedExec, err) {
			return nil
		}
		return lb.RaiseFault(cpu, &Fault{Env: env, Op: "exec", Cause: err})
	}
	return nil
}

// Transfer reassigns a heap section to another package's arena and
// updates the backend's page state (§4.2).
func (lb *LitterBox) Transfer(cpu *hw.CPU, sec *mem.Section, toPkg string) error {
	if sec.Kind != mem.KindHeap {
		return fmt.Errorf("litterbox: transfer of non-heap section %s", sec)
	}
	start := cpu.Clock.Now()
	if err := lb.backend.Transfer(cpu, sec, toPkg); err != nil {
		// The VTX and CHERI backends update one table per environment; a
		// mid-loop failure leaves the early tables showing the new owner
		// and the late ones the old. Re-running the transfer toward the
		// still-current owner restores every table to a consistent state
		// before the error propagates.
		if rbErr := lb.backend.Transfer(cpu, sec, sec.Pkg); rbErr != nil {
			return errors.Join(err, fmt.Errorf("litterbox: transfer rollback failed: %w", rbErr))
		}
		return err
	}
	cpu.Counters.Transfers++
	if lb.tracing() {
		lb.emit(cpu, obs.Event{
			Kind: obs.KindTransfer, Pkg: toPkg,
			Cost: cpu.Clock.Now() - start, Detail: sec.Name + " -> " + toPkg,
		})
	}
	lb.Space.SetOwner(sec, toPkg)
	return nil
}
