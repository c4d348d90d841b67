package litterbox

import (
	"fmt"
	"maps"
	"slices"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/obs"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
	"github.com/litterbox-project/enclosure/internal/seccomp"
)

// Dynamic package registration (§5.2): dynamic languages import modules
// lazily, so "LitterBox must accept multiple calls to Init, each of
// which provide only partial information about a program", and "the
// execution of an enclosure can trigger new imports, so LitterBox's
// default policy makes these new packages available to the executing
// enclosure, unless explicitly restricted by user policies."
//
// AddDynamicPackage is that incremental-Init path: it grows the
// dependence graph, validates the new sections, and extends the views
// of the environments the import should be visible to (the importing
// enclosure plus, implicitly, the trusted environment).

// DynamicMapper is implemented by backends that can admit packages
// after Init.
type DynamicMapper interface {
	// MapDynamicPackage makes the package's sections accessible at the
	// given modifier in each listed environment (full access in
	// trusted is implied and must also be arranged).
	MapDynamicPackage(cpu *hw.CPU, pkg string, secs []*mem.Section, visibleTo []*Env) error
}

// ErrNoDynamicSupport reports a backend without run-time imports.
var ErrNoDynamicSupport = fmt.Errorf("litterbox: backend cannot admit packages after Init")

// AddDynamicPackage registers a run-time import. The package must
// already be in the graph (pkggraph.AddIncremental) with its sections
// mapped; visibleTo lists the enclosure environments whose views gain
// the module at full access (the paper's default for import-triggering
// enclosures).
func (lb *LitterBox) AddDynamicPackage(cpu *hw.CPU, p *pkggraph.Package, secs []*mem.Section, visibleTo []*Env) error {
	for _, sec := range secs {
		if !sec.Base.PageAligned() || sec.Size%mem.PageSize != 0 {
			return fmt.Errorf("%w: %s", ErrMisaligned, sec)
		}
	}
	dm, ok := lb.backend.(DynamicMapper)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoDynamicSupport, lb.backend.Name())
	}

	for _, env := range visibleTo {
		if env.Trusted {
			continue
		}
		env.extendView(p.Name, ModRWX)
	}
	// Track the package in the clustering tables as its own group; the
	// MPK backend assigns it a fresh key below.
	lb.ownMeta()
	metaIdx := len(lb.metaPkgs)
	lb.pkgToMeta[p.Name] = metaIdx
	lb.metaPkgs = append(lb.metaPkgs, []string{p.Name})

	// The views changed shape: per-worker Prolog caches resolved under
	// the old views must flush (they would otherwise keep entering
	// pre-import environments). Bumped before the backend maps anything
	// so no cache refilled mid-import survives it, and regardless of the
	// mapping's outcome.
	lb.bumpViewGen()

	if err := dm.MapDynamicPackage(cpu, p.Name, secs, visibleTo); err != nil {
		// Roll the views and clustering tables back: the backend created
		// no enforcement state (MPK frees its key itself), so leaving the
		// package in any view would advertise access no mechanism backs.
		lb.ownMeta()
		// Truncate only when ours is still the final group — removing an
		// interior group would renumber every later meta-package. A
		// retained singleton group is harmless: the package is in no
		// view, so it derives as unmapped everywhere.
		if last := len(lb.metaPkgs) - 1; metaIdx == last && len(lb.metaPkgs[last]) == 1 && lb.metaPkgs[last][0] == p.Name {
			lb.metaPkgs = lb.metaPkgs[:last]
		}
		delete(lb.pkgToMeta, p.Name)
		for _, env := range visibleTo {
			if env.Trusted {
				continue
			}
			env.removeFromView(p.Name)
		}
		lb.bumpViewGen()
		return err
	}
	lb.emit(cpu, obs.Event{Kind: obs.KindInit, Detail: fmt.Sprintf("dynamic package %s (+%d sections)", p.Name, len(secs))})
	return nil
}

// ownMeta gives lb private copies of shared clustering tables before a
// write.
func (lb *LitterBox) ownMeta() {
	if !lb.metaShared {
		return
	}
	lb.metaPkgs = slices.Clone(lb.metaPkgs)
	lb.pkgToMeta = maps.Clone(lb.pkgToMeta)
	lb.metaShared = false
}

// --- Baseline: nothing to enforce, nothing to map. -------------------

// MapDynamicPackage implements DynamicMapper.
func (b *BaselineBackend) MapDynamicPackage(cpu *hw.CPU, pkg string, secs []*mem.Section, visibleTo []*Env) error {
	return nil
}

// --- VT-x: map the sections into the visible tables. ------------------

// MapDynamicPackage implements DynamicMapper. This is the incremental
// delta path: only the new sections are mapped into the importing
// environments' tables — never a full rebuild. MapSection is the
// copy-on-write form, so an importer sharing a physical table splits
// off its own copy first; non-importing sharers keep the old view. The
// import mutates views in place, invalidating the content-addressed
// registry's keys, so it is cleared.
func (b *VTXBackend) MapDynamicPackage(cpu *hw.CPU, pkg string, secs []*mem.Section, visibleTo []*Env) error {
	b.invalidateSignatures()
	targets := append([]*Env{b.lb.Trusted()}, visibleTo...)
	for _, env := range targets {
		mod := ModRWX
		for _, sec := range secs {
			rights := sectionRights(mod, sec.Kind) & sec.Perm
			if rights == mem.PermNone {
				continue
			}
			b.lb.Clock.Advance(hw.CostEPTToggle)
			if err := b.machine.MapSection(env.Table, sec, rights); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- CHERI: grant capabilities in the visible tables. -----------------

// MapDynamicPackage implements DynamicMapper.
func (b *CHERIBackend) MapDynamicPackage(cpu *hw.CPU, pkg string, secs []*mem.Section, visibleTo []*Env) error {
	targets := append([]*Env{b.lb.Trusted()}, visibleTo...)
	for _, env := range targets {
		for _, sec := range secs {
			rights := sectionRights(ModRWX, sec.Kind) & sec.Perm
			if rights == mem.PermNone {
				continue
			}
			if err := b.GrantCapability(env, sec.Base, sec.Size, rights); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- MPK: fresh key, retag, refresh PKRUs and the syscall filter. ------

// MapDynamicPackage implements DynamicMapper. The new module gets its
// own protection key; the importing environments' PKRU values gain it,
// and because PKRU values identify environments in the seccomp filter,
// the filter is re-derived (the same slow path libmpk remaps take).
// Tasks already inside an affected environment pick the new PKRU up at
// their next switch — the import itself runs through the trusted
// runtime, so the importer always returns via Execute and sees it.
func (b *MPKBackend) MapDynamicPackage(cpu *hw.CPU, pkg string, secs []*mem.Section, visibleTo []*Env) error {
	if b.virt != nil {
		return fmt.Errorf("%w: dynamic imports with virtualised keys", ErrNoDynamicSupport)
	}
	// Imported text gets the same ERIM/Garmr gadget scan load-time text
	// does — the sections are already mapped, so a full re-scan also
	// catches sequences straddling into a neighbouring module.
	if err := b.gadgetScan(b.lb); err != nil {
		return err
	}
	key, errno := b.unit.PkeyAlloc()
	if errno != kernel.OK {
		return fmt.Errorf("litterbox/mpk: pkey_alloc for %s: %v", pkg, errno)
	}
	// Undo half-applied state on failure: the allocated key goes back to
	// the pool (tagged pages fall back to the default key) and the
	// assignment tables forget the package, so a failed import leaves
	// the key space exactly as it found it.
	fail := func(err error) error {
		b.ownKeys()
		if n := len(b.keyByMeta); n > 0 && b.keyByMeta[n-1] == key {
			b.keyByMeta = b.keyByMeta[:n-1]
		}
		delete(b.keyOf, pkg)
		b.unit.PkeyFree(key)
		return err
	}
	b.ownKeys()
	b.keyByMeta = append(b.keyByMeta, key)
	b.keyOf[pkg] = key
	for _, sec := range secs {
		b.lb.Clock.Advance(hw.CostPkeyMprotect)
		cpu.Counters.PkeyMprotects++
		if errno := b.unit.PkeyMprotect(sec.Base, sec.Size, sec.Perm, key); errno != kernel.OK {
			return fail(fmt.Errorf("litterbox/mpk: tagging %s: %v", sec, errno))
		}
	}
	// Refresh every environment's PKRU (the new key defaults to denied;
	// trusted and the importers gain it) and re-derive the filter. The
	// spare-key set shrank, so the color assignment restarts too.
	b.rules, b.rulesShared = make(map[uint32]seccomp.EnvRule), false
	b.colorBySig = nil
	metas := b.lb.MetaPackages()
	for _, env := range b.lb.EnvsSnapshot() {
		b.derivePKRU(env, metas)
		b.addRule(env)
	}
	return b.reloadFilter()
}
