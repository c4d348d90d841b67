package probe

import (
	"fmt"

	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/obs"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
)

// Policy mining over generated traces: replay a trace's executable
// operations in an audited world whose enclosures carry *empty*
// policies, so every foreign access and every syscall is a recorded
// denial and Audit.Derive emits the minimal literal the walk needs.
// ReplayDerived then re-runs the identical walk enforcing those derived
// literals; the walk is fault-free by construction, which is the
// round-trip property the privilege analyzer pins corpus-wide.
//
// The mined walk is a deliberate sub-trace: operations whose needs no
// policy literal can express are dropped up front, because audit mode
// would happily record them while enforcement can never grant them —
// forged call-site tokens (integrity, not policy), reads and writes of
// pooled heap spans (invisible to every environment, trusted included),
// writes to read-only sections, syscalls outside every filter category,
// and the scripted fault injections (which exist to probe error paths,
// not privilege).

// MineStats summarises one audited mining replay.
type MineStats struct {
	Ops, Skipped int
	// Violations counts recorded events enforcement would have faulted
	// on — the footprint the derived policies must grant.
	Violations int64
}

// mineWalk replays tr's minable operations against one world, honouring
// the model's executability decisions, and resets the fault domain
// after any fault so the walk continues uniformly. It reports the
// number of faults observed (zero in audit mode unless integrity
// tripped; zero under covering derived policies).
func mineWalk(tr Trace, w *World) (MineStats, int) {
	m := NewModel(tr.Spec)
	var stats MineStats
	faults := 0
	for _, op := range tr.Ops {
		if !minable(m, op) {
			stats.Skipped++
			continue
		}
		pred := m.Step(op)
		if pred.skip {
			stats.Skipped++
			continue
		}
		stats.Ops++
		out, env := execOp(w, op)
		if _, aborted := w.Dom.Aborted(); aborted {
			w.Dom.Reset()
		}
		if len(out) >= 6 && out[:6] == "fault:" {
			faults++
			continue
		}
		switch op.Kind {
		case OpProlog:
			if env != nil {
				w.PushFrame(env, op.Encl)
			}
		case OpEpilog:
			w.PopFrame()
		}
	}
	return stats, faults
}

// minable reports whether the walk executes op at all. It must be
// called before Model.Step: dropped operations are invisible to the
// model, keeping its nesting depth and span-ownership state in lockstep
// with the world's.
//
// Dynamically imported packages get special treatment: a policy
// literal cannot name them (they do not exist at Init), so their only
// grant is the RWX the import itself installs in the importing
// enclosure's base environment. Any access the reference model denies
// under that rule is ungrantable and dropped from the walk.
func minable(m *Model, op Op) bool {
	cur := m.stack[len(m.stack)-1]
	switch op.Kind {
	case OpArmErrno, OpArmTransfer:
		return false
	case OpProlog:
		return !op.BadToken
	case OpRead, OpWrite:
		owner, kind, ok := m.memOwner(op)
		if !ok {
			return true // the model will skip it uniformly
		}
		if owner == kernel.HeapOwner || owner == pkggraph.SuperPkg {
			return false // pooled spans and super are grantable to no one
		}
		if op.Kind == OpWrite && kind == "rodata" {
			return false
		}
		if m.imported[owner] && !m.memAllowed(cur, owner, kind, op.Kind == OpWrite) {
			return false
		}
		return true
	case OpExec:
		if op.Pkg == pkggraph.SuperPkg {
			return false
		}
		if m.imported[op.Pkg] && cur.modOf(op.Pkg) != litterbox.ModRWX {
			return false
		}
		return true
	case OpSyscall:
		return kernel.CategoryOf(op.Nr) != kernel.CatNone
	case OpBatch:
		for _, s := range op.Batch {
			if !s.Runtime && kernel.CategoryOf(s.Nr) == kernel.CatNone {
				return false
			}
		}
		return true
	}
	return true
}

// MineTraceWith replays tr under one backend in audit mode with the
// given per-enclosure policies installed and returns the audit recorder
// holding the residual needs — everything those policies denied —
// keyed by environment name. Nested entries record under composite
// names ("e1&e2"); the analyzer attributes those needs to every
// constituent enclosure when it unions policies. Because audit-world
// nesting follows the same more-restrictive-vs-intersection branch the
// enforcing world takes for the same policies, iterating mine → union →
// re-mine converges on policies whose enforcing replay is fault-free.
// The world's pages go back to the pool once the walk ends.
func MineTraceWith(tr Trace, backend string, policies []litterbox.Policy) (*obs.Audit, MineStats, error) {
	audit := obs.NewAudit()
	w, err := BuildWorldWith(tr.Spec, backend, policies, audit)
	if err != nil {
		return nil, MineStats{}, fmt.Errorf("probe: mining %s world: %w", backend, err)
	}
	stats, faults := mineWalk(tr, w)
	release(w.LB.Space)
	if faults > 0 {
		// Audit mode never faults on policy; anything here is an
		// integrity or harness bug the caller must see.
		return nil, stats, fmt.Errorf("probe: audited %s walk faulted %d times", backend, faults)
	}
	stats.Violations = audit.Violations()
	return audit, stats, nil
}

// SpecPolicies converts a generated spec's enclosure declarations into
// the litterbox policies BuildWorld installs — the "declared" side of
// the analyzer's over-privilege diff, with package indices resolved to
// their world names.
func SpecPolicies(spec WorldSpec) []litterbox.Policy {
	out := make([]litterbox.Policy, len(spec.Encls))
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
		out[i] = pol
	}
	return out
}

// BackendNames returns the four world names, baseline first — the
// sweep order the analyzer mines under.
func BackendNames() []string { return append([]string{}, backendNames...) }

// ReplayDerived re-runs the mined walk of tr enforcing the given
// per-enclosure policies (indexed like tr.Spec.Encls) and returns the
// number of faults observed — zero exactly when the policies cover the
// walk's footprint. The world's pages go back to the pool once the
// walk ends.
func ReplayDerived(tr Trace, backend string, policies []litterbox.Policy) (faults int, stats MineStats, err error) {
	w, err := BuildWorldWith(tr.Spec, backend, policies, nil)
	if err != nil {
		return 0, MineStats{}, fmt.Errorf("probe: replay %s world: %w", backend, err)
	}
	stats, faults = mineWalk(tr, w)
	release(w.LB.Space)
	return faults, stats, nil
}
