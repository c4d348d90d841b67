package litterbox

import (
	"fmt"
	"sort"
	"sync"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/mem"
)

// EnvID identifies an execution environment. The trusted environment —
// non-enclosed code with access to everything except LitterBox's super
// package — is always TrustedEnv.
type EnvID int

// TrustedEnv is the identifier of the trusted execution environment.
const TrustedEnv EnvID = 0

// Env is one execution environment: a complete memory view (package →
// access modifier), a system-call filter, and the backend's hardware
// handle for it (a PKRU value under LB_MPK, a page table under LB_VTX).
type Env struct {
	ID   EnvID
	Name string

	// View is the complete memory view: every package granted any
	// access appears here; absent packages are unmapped. It is fixed at
	// Init except for dynamic imports, which extend it.
	View map[string]AccessMod

	// Cats is the permitted system-call category mask.
	Cats kernel.Category

	// ConnectAllow narrows connect(2) destinations. nil means
	// unrestricted; a non-nil slice is an allowlist, so the empty
	// non-nil slice blocks every connect (the result of intersecting
	// disjoint allowlists). Every filter gate distinguishes the two.
	ConnectAllow []uint32

	// Trusted marks the distinguished non-enclosed environment.
	Trusted bool

	// connectSet is the O(1) form of ConnectAllow, built on first use
	// (ConnectAllow is immutable after construction).
	connectOnce sync.Once
	connectSet  map[uint32]struct{}

	// Hardware handles, owned by the backend.
	PKRU  hw.PKRU // LB_MPK
	Table int     // LB_VTX page-table id
}

// ModOf returns the environment's access modifier for a package
// (ModU for packages outside the view).
func (e *Env) ModOf(pkg string) AccessMod {
	if e.Trusted {
		if pkg == superName {
			return ModU
		}
		return ModRWX
	}
	return e.View[pkg]
}

// extendView adds a package to the view (dynamic imports only).
func (e *Env) extendView(pkg string, mod AccessMod) { e.View[pkg] = mod }

// removeFromView undoes extendView when a dynamic import fails after
// the view was already extended: enforcement state (keys, tables) was
// never created, so the view must not advertise the package either.
func (e *Env) removeFromView(pkg string) { delete(e.View, pkg) }

// CanExec reports whether the environment may invoke pkg's functions.
func (e *Env) CanExec(pkg string) bool { return e.ModOf(pkg) == ModRWX }

// CanRead reports whether the environment may read pkg's data.
func (e *Env) CanRead(pkg string) bool { return e.ModOf(pkg) >= ModR }

// CanWrite reports whether the environment may write pkg's variables.
func (e *Env) CanWrite(pkg string) bool { return e.ModOf(pkg) >= ModRW }

// AllowsSyscall reports whether nr passes the environment's category
// filter (argument-level connect filtering is enforced separately).
func (e *Env) AllowsSyscall(nr kernel.Nr) bool {
	if e.Trusted {
		return true
	}
	cat := kernel.CategoryOf(nr)
	return cat != kernel.CatNone && e.Cats.Has(cat)
}

// ConnectAllowed reports whether the environment permits a connect to
// host: always when ConnectAllow is nil (unrestricted), otherwise by a
// set-membership test — the guest-side equivalent of the verdict
// table's connect hash set, replacing the per-call linear scan the VTX
// and CHERI filters used to run.
func (e *Env) ConnectAllowed(host uint32) bool {
	if e.Trusted || e.ConnectAllow == nil {
		return true
	}
	e.connectOnce.Do(func() {
		m := make(map[uint32]struct{}, len(e.ConnectAllow))
		for _, h := range e.ConnectAllow {
			m[h] = struct{}{}
		}
		e.connectSet = m
	})
	_, ok := e.connectSet[host]
	return ok
}

// MoreRestrictiveThan reports whether e grants no right t does not: the
// nesting invariant (§2.2 — "a switch can only enter an equal or more
// restrictive environment, preventing an escalation of privileges").
func (e *Env) MoreRestrictiveThan(t *Env) bool {
	if t.Trusted {
		return true
	}
	if e.Trusted {
		return false
	}
	for pkg, m := range e.View {
		if m > t.View[pkg] {
			return false
		}
	}
	return e.Cats&^t.Cats == 0
}

// String summarises the environment.
func (e *Env) String() string {
	if e.Trusted {
		return fmt.Sprintf("env#%d(trusted)", e.ID)
	}
	names := make([]string, 0, len(e.View))
	for n := range e.View {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		out += n + ":" + e.View[n].String()
	}
	return fmt.Sprintf("env#%d(%s | sys:%s)", e.ID, out, e.Cats)
}

// intersect builds the environment combining e's and f's restrictions:
// per-package minimum modifier, category intersection, and the tighter
// connect allowlist. It is the target of a nested switch.
func intersect(e, f *Env) *Env {
	if e.Trusted {
		return f
	}
	if f.Trusted {
		return e
	}
	out := &Env{
		Name: e.Name + "&" + f.Name,
		Cats: e.Cats & f.Cats,
	}
	out.View = make(map[string]AccessMod, min(len(e.View), len(f.View)))
	for pkg, m := range e.View {
		if fm, ok := f.View[pkg]; ok {
			if mod := m.Min(fm); mod > ModU {
				out.View[pkg] = mod
			}
		}
	}
	switch {
	case e.ConnectAllow == nil:
		// Only nil means unrestricted — a non-nil empty list is the
		// block-everything allowlist and must dominate the intersection,
		// so the cases test nil-ness, never length. ConnectAllow is
		// immutable after construction, so the surviving list is shared,
		// not copied.
		out.ConnectAllow = f.ConnectAllow
	case f.ConnectAllow == nil:
		out.ConnectAllow = e.ConnectAllow
	default:
		seen := make(map[uint32]bool, len(e.ConnectAllow))
		for _, h := range e.ConnectAllow {
			seen[h] = true
		}
		// Non-nil even when empty: an empty allowlist blocks all
		// connects. Sized once — the intersection can't exceed the
		// smaller list.
		hosts := make([]uint32, 0, min(len(e.ConnectAllow), len(f.ConnectAllow)))
		for _, h := range f.ConnectAllow {
			if seen[h] {
				hosts = append(hosts, h)
			}
		}
		out.ConnectAllow = hosts
	}
	return out
}

// cloneHosts copies a connect allowlist preserving its nil-ness —
// append([]uint32(nil), empty...) would collapse the block-everything
// empty list into the unrestricted nil.
func cloneHosts(h []uint32) []uint32 {
	if h == nil {
		return nil
	}
	out := make([]uint32, len(h))
	copy(out, h)
	return out
}

// SectionRightsFor is the exported form of sectionRights for analysis
// tooling (the privilege analyzer classifies every reachable page by
// the rights an environment's modifier grants it). Enforcement paths
// use the unexported function directly.
func SectionRightsFor(mod AccessMod, kind mem.SectionKind) mem.Perm {
	return sectionRights(mod, kind)
}

// sectionRights translates a package-level modifier into the page
// rights a section of the given kind receives in that view. Under R and
// RW the package's functions are hidden (§5.2: "hide a module's
// functions when the module is mapped without execution rights").
func sectionRights(mod AccessMod, kind mem.SectionKind) mem.Perm {
	switch mod {
	case ModRWX:
		return kind.DefaultPerm()
	case ModRW:
		switch kind {
		case mem.KindText:
			return mem.PermNone
		case mem.KindROData:
			return mem.PermR
		default:
			return mem.PermR | mem.PermW
		}
	case ModR:
		if kind == mem.KindText {
			return mem.PermNone
		}
		return mem.PermR
	default:
		return mem.PermNone
	}
}
