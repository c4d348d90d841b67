package litterbox

import (
	"fmt"
	"sort"

	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/mem"
)

// ViewKey canonically renders an environment's memory view — the
// content-addressing key of the VTX page-table registry, exported so
// the cluster can content-address environment state the same way:
// identical keys mean bit-identical page tables, so a migration target
// that already holds an env with the same key needs no table shipped.
func ViewKey(env *Env) string { return viewKey(env) }

// EnvExport is one environment's policy-complete serialized form: the
// full memory view, syscall category mask, and connect allowlist —
// everything a migration target must re-verify before resuming
// execution under the environment. Hardware handles (PKRU, Table) are
// deliberately absent: they are node-local names, reconstructed on the
// target by its own backend.
type EnvExport struct {
	ID      int                  `json:"id"`
	Name    string               `json:"name"`
	Trusted bool                 `json:"trusted,omitempty"`
	View    map[string]AccessMod `json:"view,omitempty"`
	Cats    kernel.Category      `json:"cats"`
	// Connect preserves the allowlist's nil-ness: null is unrestricted,
	// [] blocks every connect. The JSON encoding keeps the distinction
	// (gob would collapse it), which is why checkpoints serialize as
	// JSON.
	Connect []uint32 `json:"connect"`
	ViewKey string   `json:"view_key"`
}

// StateExport is a consistent snapshot of a program's whole environment
// table plus the heap-span ownership the views are evaluated against.
// It is read from one RCU snapshot load, so a concurrent dynamic import
// either appears completely or not at all — never torn.
type StateExport struct {
	Backend    string            `json:"backend"`
	Gen        uint64            `json:"gen"`
	ViewGen    uint64            `json:"view_gen"`
	Envs       []EnvExport       `json:"envs"`
	SpanOwners map[string]string `json:"span_owners,omitempty"`
}

// ExportState snapshots the environment table for migration. The env
// list is in ID order (the snapshot's append order), so two programs
// that executed the same operation sequence export byte-identical
// state.
func (lb *LitterBox) ExportState() StateExport {
	s := lb.snap.Load()
	out := StateExport{
		Backend:    lb.backend.Name(),
		Gen:        s.gen,
		ViewGen:    s.viewGen,
		SpanOwners: map[string]string{},
	}
	for _, env := range s.envs {
		out.Envs = append(out.Envs, exportEnv(env))
	}
	for _, sec := range lb.Space.Sections() {
		if sec.Kind == mem.KindHeap {
			out.SpanOwners[sec.Name] = sec.Pkg
		}
	}
	return out
}

func exportEnv(env *Env) EnvExport {
	return EnvExport{
		ID:      int(env.ID),
		Name:    env.Name,
		Trusted: env.Trusted,
		View:    env.viewSnapshot(),
		Cats:    env.Cats,
		Connect: cloneHosts(env.ConnectAllow),
		ViewKey: viewKey(env),
	}
}

// VerifyState is the migration target's policy re-verification: the
// shipped snapshot must match this program's own environment state
// exactly — same envs in the same ID order, same views, same syscall
// masks, same connect allowlists (including nil-versus-empty), same
// view keys, same span ownership. Publish generations are diagnostics,
// not policy, and are not compared. A mismatch means the source and
// target diverged (a dynamic import one side missed, a transfer the
// other never saw) and resuming would run the env under the wrong
// policy, so the migration must be rejected.
func (lb *LitterBox) VerifyState(exp StateExport) error {
	local := lb.ExportState()
	if err := verifyPolicy(exp, local); err != nil {
		return err
	}
	if err := verifyOwners(exp.SpanOwners, local.SpanOwners); err != nil {
		return err
	}
	return nil
}

// VerifyPolicy is VerifyState restricted to the policy axes: backend,
// environments, views, syscall masks, connect allowlists, view keys —
// but not heap-span ownership. A cluster node accepting a migrated
// *session* verifies policy only: both nodes run the same image, but
// their heaps reflect their own request histories, which are transient
// execution state, not policy. (A full world restore — checkpoint plus
// journal replay — still uses VerifyState, because the replay
// reconstructs the spans too.)
func (lb *LitterBox) VerifyPolicy(exp StateExport) error {
	return verifyPolicy(exp, lb.ExportState())
}

func verifyPolicy(exp, local StateExport) error {
	if exp.Backend != local.Backend {
		return fmt.Errorf("litterbox: state verify: backend %q != local %q", exp.Backend, local.Backend)
	}
	if len(exp.Envs) != len(local.Envs) {
		return fmt.Errorf("litterbox: state verify: %d envs != local %d", len(exp.Envs), len(local.Envs))
	}
	for i := range exp.Envs {
		if err := verifyEnv(exp.Envs[i], local.Envs[i]); err != nil {
			return err
		}
	}
	return nil
}

func verifyEnv(e, l EnvExport) error {
	fail := func(field string, got, want any) error {
		return fmt.Errorf("litterbox: state verify: env #%d (%s): %s %v != local %v",
			e.ID, e.Name, field, got, want)
	}
	switch {
	case e.ID != l.ID:
		return fail("id", e.ID, l.ID)
	case e.Name != l.Name:
		return fail("name", e.Name, l.Name)
	case e.Trusted != l.Trusted:
		return fail("trusted", e.Trusted, l.Trusted)
	case e.Cats != l.Cats:
		return fail("cats", e.Cats, l.Cats)
	case e.ViewKey != l.ViewKey:
		return fail("view key", e.ViewKey, l.ViewKey)
	}
	if len(e.View) != len(l.View) {
		return fail("view size", len(e.View), len(l.View))
	}
	for pkg, mod := range e.View {
		if l.View[pkg] != mod {
			return fail("view["+pkg+"]", mod, l.View[pkg])
		}
	}
	if (e.Connect == nil) != (l.Connect == nil) {
		return fail("connect nil-ness", e.Connect == nil, l.Connect == nil)
	}
	if len(e.Connect) != len(l.Connect) {
		return fail("connect size", len(e.Connect), len(l.Connect))
	}
	for i := range e.Connect {
		if e.Connect[i] != l.Connect[i] {
			return fail("connect", e.Connect, l.Connect)
		}
	}
	return nil
}

func verifyOwners(exp, local map[string]string) error {
	if len(exp) != len(local) {
		return fmt.Errorf("litterbox: state verify: %d spans != local %d", len(exp), len(local))
	}
	names := make([]string, 0, len(exp))
	for n := range exp {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l, ok := local[n]
		if !ok {
			return fmt.Errorf("litterbox: state verify: span %q missing locally", n)
		}
		if l != exp[n] {
			return fmt.Errorf("litterbox: state verify: span %q owner %q != local %q", n, exp[n], l)
		}
	}
	return nil
}
