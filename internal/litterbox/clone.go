package litterbox

import (
	"errors"
	"fmt"
	"maps"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/linker"
	"github.com/litterbox-project/enclosure/internal/obs"
)

// Warm-enclosure snapshot support: a captured template LitterBox is
// cloned into an independent instance in O(state), never O(build) — no
// view computation, no meta-package clustering, no section validation,
// no gadget scan, no filter compilation, and no page-table construction
// happen on this path. Everything immutable (verification tokens,
// enclosure names, compiled seccomp artifacts, symbol tables, connect
// allowlists) is shared outright; the rarely written tables (clustering,
// MPK key assignment, colors and filter rules) are shared copy-on-write
// with the template; the environments and the backend hardware state
// are copied. ResetTo rewinds a clone to its template at the cost of
// what the clone changed.

// Errors surfaced by snapshot cloning.
var (
	// ErrNotCloneable reports a backend configuration that cannot be
	// snapshot-cloned (MPK with virtualised keys: the eviction cache is
	// entangled with per-CPU PKRU history). Callers fall back to a cold
	// build.
	ErrNotCloneable = errors.New("litterbox: backend state cannot be snapshot-cloned")
	// ErrCaptureAborted refuses to capture a template from a faulted
	// program.
	ErrCaptureAborted = errors.New("litterbox: cannot capture an aborted program as a template")
)

// backendCloner is implemented by backends that support warm-snapshot
// cloning. cloneFor builds this backend's state for the cloned
// LitterBox c (whose Space/Clock/Kernel are already in place);
// resetFrom rewinds a backend cloneFor made from tmpl back to tmpl's
// state in place.
type backendCloner interface {
	cloneFor(c *LitterBox) (Backend, error)
	resetFrom(tmpl Backend)
}

// CloneDeps carries the per-instance state a LitterBox clone binds to:
// the image rebound onto the cloned address space (linker.Image.CloneWith),
// the cloned kernel and process, and the instance's own clock.
type CloneDeps struct {
	Image  *linker.Image
	Kernel *kernel.Kernel
	Proc   *kernel.Proc
	Clock  *hw.Clock
}

// CloneInto builds an independent LitterBox from a captured template.
// The template must be quiescent: not aborted, no in-flight intersection
// materialisation. The clone enforces identically to a cold-built
// LitterBox over the same image — the probe corpus proves this digest-
// identical. It copies only the environments and the backend's hardware
// unit; the clustering tables are shared, and from here on either side
// copies them before writing.
func (lb *LitterBox) CloneInto(deps CloneDeps) (*LitterBox, error) {
	if lb.aborted.Load() {
		return nil, ErrCaptureAborted
	}
	cloner, ok := lb.backend.(backendCloner)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotCloneable, lb.backend.Name())
	}

	c := &LitterBox{
		Image:  deps.Image,
		Space:  deps.Image.Space,
		Clock:  deps.Clock,
		Kernel: deps.Kernel,
		Proc:   deps.Proc,
		graph:  deps.Image.Graph,
		audit:  lb.audit,
	}
	if tr, _ := lb.trace.Load().(*obs.Trace); tr != nil {
		c.trace.Store(tr)
	}
	c.ringSeq.Store(lb.ringSeq.Load())

	lb.mu.Lock()
	c.nextEnv = lb.nextEnv
	c.verif, c.enclName = lb.verif, lb.enclName // written only by Init
	c.metaPkgs, c.pkgToMeta, c.metaShared = lb.metaPkgs, lb.pkgToMeta, true
	lb.metaShared = true
	snap := lb.snap.Load()
	lb.mu.Unlock()

	csnap, err := cloneSnapshot(snap)
	if err != nil {
		return nil, err
	}
	c.trusted = csnap.envs[TrustedEnv]
	c.snap.Store(csnap)
	c.birth = csnap

	backend, err := cloner.cloneFor(c)
	if err != nil {
		return nil, err
	}
	c.backend = backend

	c.Kernel.SetTraceSource(func(cpu *hw.CPU) (*obs.Trace, string, string) {
		tr, _ := c.trace.Load().(*obs.Trace)
		if tr == nil {
			return nil, "", ""
		}
		return tr, c.backend.Name(), c.workerName(cpu)
	})
	return c, nil
}

// ResetTo rewinds a LitterBox cloned from t (CloneInto) to t's state in
// place, at the cost of what the clone changed since birth: the
// clustering tables re-point at t's copy-on-write, the env snapshot
// returns to the clone's birth snapshot (dropping materialised
// intersections; views and PKRU values a dynamic import extended are
// restored from t's environments), worker bindings and the program
// abort are cleared, and the backend resets itself — MPK replays its
// unit's journal, VTX and CHERI re-copy their unit only when its
// generation moved. Environment pointers stay valid across the reset.
func (lb *LitterBox) ResetTo(t *LitterBox) {
	t.mu.Lock()
	nextEnv, metaPkgs, pkgToMeta := t.nextEnv, t.metaPkgs, t.pkgToMeta
	t.metaShared = true
	tsnap := t.snap.Load()
	t.mu.Unlock()

	lb.mu.Lock()
	lb.nextEnv = nextEnv
	lb.metaPkgs, lb.pkgToMeta, lb.metaShared = metaPkgs, pkgToMeta, true
	if cur := lb.snap.Load(); cur != lb.birth {
		if cur.viewGen != lb.birth.viewGen {
			for i, e := range lb.birth.envs {
				e.restoreFrom(tsnap.envs[i])
			}
		}
		lb.snap.Store(lb.birth)
	}
	lb.mu.Unlock()

	lb.cpus.Range(func(k, _ any) bool {
		lb.cpus.Delete(k)
		return true
	})
	lb.fault.Store(nil)
	lb.aborted.Store(false)
	if tr := t.Tracer(); tr != lb.Tracer() {
		lb.trace.Store(tr)
	}
	lb.ringSeq.Store(t.ringSeq.Load())
	lb.backend.(backendCloner).resetFrom(t.backend)
}

// cloneSnapshot deep-copies the RCU env snapshot: every environment is
// copied (views are mutable via dynamic imports, so they cannot be
// shared), intersection cache entries are remapped onto the cloned
// environments, and generations carry over so per-worker EnvCaches
// epoch-match exactly as they would against the template.
func cloneSnapshot(s *envSnapshot) (*envSnapshot, error) {
	c := &envSnapshot{
		gen:     s.gen,
		viewGen: s.viewGen,
		envs:    make([]*Env, len(s.envs)),
		byEncl:  make(map[int]EnvID, len(s.byEncl)),
		inter:   make(map[[2]EnvID]*interEntry, len(s.inter)),
	}
	for i, e := range s.envs {
		ne := cloneEnv(e)
		if EnvID(i) != ne.ID {
			return nil, fmt.Errorf("litterbox: snapshot env table not dense at %d (id %d)", i, ne.ID)
		}
		c.envs[i] = ne
	}
	for k, v := range s.byEncl {
		c.byEncl[k] = v
	}
	for k, ent := range s.inter {
		select {
		case <-ent.ready:
		default:
			// In-flight materialisation: capture is supposed to be
			// quiescent, but an unresolved entry is merely a cache miss
			// for the clone — drop it and let the clone re-materialise.
			continue
		}
		if ent.err != nil || ent.env == nil {
			continue // failed entries are retried by design; don't clone them
		}
		ready := make(chan struct{})
		close(ready)
		c.inter[k] = &interEntry{ready: ready, env: c.envs[ent.env.ID]}
	}
	return c, nil
}

// cloneEnv copies one environment. The connect allowlist is shared — it
// is immutable after construction (the same contract connectSet's lazy
// build relies on) — while the view map is copied because dynamic
// imports mutate it in place.
func cloneEnv(e *Env) *Env {
	ne := &Env{
		ID:           e.ID,
		Name:         e.Name,
		Cats:         e.Cats,
		ConnectAllow: e.ConnectAllow,
		Trusted:      e.Trusted,
		PKRU:         e.PKRU,
		Table:        e.Table,
	}
	if e.View != nil {
		e.viewMu.RLock()
		ne.View = make(map[string]AccessMod, len(e.View))
		for k, v := range e.View {
			ne.View[k] = v
		}
		e.viewMu.RUnlock()
	}
	return ne
}

// restoreFrom puts back the parts of a cloned environment a dynamic
// import rewrites in place — the view and the PKRU value — from the
// template environment it was cloned from.
func (e *Env) restoreFrom(t *Env) {
	e.PKRU = t.PKRU
	if e.View == nil {
		return
	}
	t.viewMu.RLock()
	e.viewMu.Lock()
	clear(e.View)
	for k, v := range t.View {
		e.View[k] = v
	}
	e.viewMu.Unlock()
	t.viewMu.RUnlock()
}

// --- Backend snapshot cloning ----------------------------------------

func (b *BaselineBackend) cloneFor(c *LitterBox) (Backend, error) {
	return &BaselineBackend{lb: c}, nil
}

func (b *BaselineBackend) resetFrom(Backend) {}

// cloneFor copies the unit (key bitmap and page key tags; the copy
// journals its own changes) and shares the key assignment, color and
// filter-rule tables copy-on-write. No gadget rescan runs: the clone's
// text pages are bit-identical by CoW. No filter recompiles: the cloned
// kernel already carries the compiled artifact pointer.
func (b *MPKBackend) cloneFor(c *LitterBox) (Backend, error) {
	b.stateMu.RLock()
	virt := b.virt != nil
	b.stateMu.RUnlock()
	if virt {
		return nil, fmt.Errorf("%w: mpk with virtualised keys", ErrNotCloneable)
	}
	nb := &MPKBackend{lb: c, unit: b.unit.Clone(c.Space)}
	nb.shareTables(b)
	c.Kernel.SetPkeyOps(nb.unit)
	return nb, nil
}

// resetFrom replays the unit's journal and re-points the tables at the
// template's — no page-map or table copy.
func (b *MPKBackend) resetFrom(tmpl Backend) {
	b.unit.Revert()
	b.shareTables(tmpl.(*MPKBackend))
}

// shareTables points b's key assignment, colors and filter rules at t's
// and marks both sides copy-on-write.
func (b *MPKBackend) shareTables(t *MPKBackend) {
	t.stateMu.Lock()
	b.stateMu.Lock()
	b.keyByMeta, b.keyOf, b.superKey, b.colorBySig = t.keyByMeta, t.keyOf, t.superKey, t.colorBySig
	t.keysShared, b.keysShared = true, true
	b.stateMu.Unlock()
	t.stateMu.Unlock()
	t.mu.Lock()
	b.mu.Lock()
	b.rules = t.rules
	t.rulesShared, b.rulesShared = true, true
	b.mu.Unlock()
	t.mu.Unlock()
}

// cloneFor deep-copies the machine's page tables and the
// content-addressed signature registry — its handle ids stay valid
// because Machine.Clone preserves them.
func (b *VTXBackend) cloneFor(c *LitterBox) (Backend, error) {
	nb := &VTXBackend{lb: c}
	nb.noShare.Store(b.noShare.Load())
	nb.copyMachine(b)
	return nb, nil
}

// resetFrom keeps the machine when its generation proves it untouched
// since birth and re-copies it from the template otherwise: a tenant's
// transfers and intersections rewrite shared physical tables in place,
// which no journal short of the tables themselves could undo.
func (b *VTXBackend) resetFrom(tmpl Backend) {
	t := tmpl.(*VTXBackend)
	if b.machine.Generation() != t.machine.Generation() {
		b.copyMachine(t)
	}
	b.noShare.Store(t.noShare.Load())
}

func (b *VTXBackend) copyMachine(t *VTXBackend) {
	b.machine = t.machine.Clone(b.lb.Space, b.lb.Clock)
	t.sigMu.Lock()
	b.sigs = maps.Clone(t.sigs)
	t.sigMu.Unlock()
	if b.sigs == nil {
		b.sigs = make(map[string]int)
	}
}

// cloneFor copies the capability tables with their ids preserved.
func (b *CHERIBackend) cloneFor(c *LitterBox) (Backend, error) {
	return &CHERIBackend{lb: c, unit: b.unit.Clone(c.Clock)}, nil
}

// resetFrom keeps the unit when its generation proves it untouched
// since birth and re-copies it from the template otherwise.
func (b *CHERIBackend) resetFrom(tmpl Backend) {
	t := tmpl.(*CHERIBackend)
	if b.unit.Generation() != t.unit.Generation() {
		b.unit = t.unit.Clone(b.lb.Clock)
	}
}
