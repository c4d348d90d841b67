package cluster

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/probe"
	"github.com/litterbox-project/enclosure/internal/simnet"
	"github.com/litterbox-project/enclosure/internal/vtx"
)

const migrateSeed = 0xC1057E2

// The acceptance oracle: a probe sweep with every world force-migrated
// at its trace's midpoint must produce outcome digests bit-identical to
// the unmigrated sweep, on all four backends. 300 traces, 40 ops each.
func TestMigrationSweepDigestsMatch(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	migrations := 0
	stats, div, err := probe.Sweep(migrateSeed, n, 40, probe.Arm{}, MigrateArm(0, &migrations))
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("migrated sweep diverged:\n%s", div)
	}
	if stats.Traces != n {
		t.Fatalf("swept %d traces, want %d", stats.Traces, n)
	}
	// Every trace migrates all four worlds (unless the trace executed
	// zero ops, which the generator never produces at 40 ops).
	if migrations != 4*n {
		t.Fatalf("performed %d migrations over %d traces, want %d", migrations, n, 4*n)
	}
	if stats.DynImports == 0 {
		t.Fatal("sweep exercised no dynamic imports: the generator's dyn-import arm is dead")
	}
	t.Logf("migration sweep: %d traces, %d ops, %d migrations, %d dyn-imports",
		stats.Traces, stats.Ops, migrations, stats.DynImports)
}

// Pinned regression: migrating a world whose journal contains a dynamic
// import — the restore must replay the import (placing the module at
// the same addresses) before the post-migration ops touch it. The
// trace also migrates while a frame is open, so the restored executor
// resumes inside the enclosure.
func TestMigrateMidDynamicImport(t *testing.T) {
	spec := probe.Gen(migrateSeed, 0).Spec
	tr := probe.Trace{
		Seed: migrateSeed,
		Spec: spec,
		Ops: []probe.Op{
			{Kind: probe.OpDynImport, Pkg: "dyn0", Encl: 1, Span: -1},
			{Kind: probe.OpRead, Pkg: "dyn0", Sec: 1, Span: -1},
			{Kind: probe.OpProlog, Encl: 1, Span: -1},
			{Kind: probe.OpRead, Pkg: "dyn0", Sec: 0, Span: -1},
			{Kind: probe.OpSyscall, Nr: kernel.NrGetpid, Span: -1, Buf: -1},
			{Kind: probe.OpEpilog, Span: -1},
			{Kind: probe.OpRead, Pkg: "dyn0", Sec: 1, Span: -1},
		},
	}
	div, base, err := probe.RunTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("unmigrated divergence: %s", div)
	}
	if base.DynImports != 1 {
		t.Fatalf("trace executed %d dyn-imports, want 1", base.DynImports)
	}
	// at=2: right after the import. at=4: inside the enclosure frame,
	// with the import in the journal.
	for _, at := range []int{2, 4} {
		migrations := 0
		div, _, err := probe.RunTrace(tr, probe.Arm{}, MigrateArm(at, &migrations))
		if err != nil {
			t.Fatalf("migrate at %d: %v", at, err)
		}
		if div != nil {
			t.Fatalf("migrate at %d: divergence: %s", at, div)
		}
		if migrations != 4 {
			t.Fatalf("migrate at %d: %d migrations, want 4", at, migrations)
		}
	}
}

// twinSpec builds a world with two enclosures declaring bit-identical
// views — the shape the VTX view-key registry collapses onto one shared
// physical page table.
func twinSpec() probe.WorldSpec {
	encl := func() probe.EnclSpec {
		return probe.EnclSpec{
			Pkg:     0,
			Mods:    map[int]litterbox.AccessMod{1: litterbox.ModR},
			Cats:    kernel.CatFile | kernel.CatIO,
			Connect: nil,
		}
	}
	return probe.WorldSpec{
		NPkgs:      2,
		Imports:    make([][]int, 2),
		Encls:      []probe.EnclSpec{encl(), encl()},
		SpanOwners: []int{-1, -1, -1},
	}
}

func vtxTables(t *testing.T, w *probe.World) (*vtx.Machine, *litterbox.Env, *litterbox.Env) {
	t.Helper()
	m := w.LB.Backend().(*litterbox.VTXBackend).Machine()
	e1, err := w.LB.EnvForEnclosure(1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := w.LB.EnvForEnclosure(2)
	if err != nil {
		t.Fatal(err)
	}
	return m, e1, e2
}

func exportTable(t *testing.T, m *vtx.Machine, table int) []vtx.PageEntry {
	t.Helper()
	entries, err := m.ExportTable(table)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// Pinned regression: two enclosures sharing a CoW page table migrate as
// a shared table, and a post-migration dynamic import into one of them
// must *split* that enclosure's table — the sharer keeps its own pages,
// it does not follow the import.
func TestMigratePreservesCoWSharingAndSplits(t *testing.T) {
	w, err := probe.BuildWorld(twinSpec(), "vtx")
	if err != nil {
		t.Fatal(err)
	}
	m, e1, e2 := vtxTables(t, w)
	if e1.Table == e2.Table {
		t.Fatal("twin enclosures share a table id: handles must stay distinct")
	}
	if m.PhysOf(e1.Table) != m.PhysOf(e2.Table) {
		t.Fatal("twin enclosures do not share a physical table: the view-key registry missed the alias")
	}

	w2, err := MigrateWorld(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, f1, f2 := vtxTables(t, w2)
	if m2.PhysOf(f1.Table) != m2.PhysOf(f2.Table) {
		t.Fatal("migration broke the CoW sharing: restored twins have distinct physical tables")
	}
	// The restored tables are bit-identical to the source's.
	if !reflect.DeepEqual(exportTable(t, m, e1.Table), exportTable(t, m2, f1.Table)) {
		t.Fatal("restored page table differs from the source's")
	}

	// Import a module into enclosure 1 on the restored node: its table
	// must split; enclosure 2's pages must not change.
	before2 := exportTable(t, m2, f2.Table)
	out, _ := probe.ExecOp(w2, probe.Op{Kind: probe.OpDynImport, Pkg: "dyn0", Encl: 1, Span: -1})
	if out != "ok" {
		t.Fatalf("post-migration dyn-import: %q", out)
	}
	if m2.PhysOf(f1.Table) == m2.PhysOf(f2.Table) {
		t.Fatal("dyn-import did not split the shared table: the sharer followed the import")
	}
	if !reflect.DeepEqual(before2, exportTable(t, m2, f2.Table)) {
		t.Fatal("sharer's pages changed under a split: CoW leaked the import into the twin")
	}
	if len(exportTable(t, m2, f1.Table)) <= len(before2) {
		t.Fatal("importing enclosure gained no pages from the import")
	}
}

// Pinned regression: a node crash during the transfer (the target's end
// of the control connection dies) must leave the source world intact —
// the swap resumes on the source and the trace's outcomes are
// indistinguishable from never having attempted the migration.
func TestMigrateCrashDuringTransferResumesOnSource(t *testing.T) {
	tr := probe.Gen(migrateSeed+7, 40)
	crashes := 0
	swap := func(w *probe.World, journal []probe.Executed) (*probe.World, error) {
		src, dst := simnet.Pair()
		dmc := simnet.NewMsgConn(dst)
		dmc.Close() // the target node crashed before receiving anything
		if _, err := migrateOver(w, journal, simnet.NewMsgConn(src), dmc); err == nil {
			t.Fatal("transfer to a crashed target reported success")
		}
		crashes++
		return w, nil // resume on the source
	}
	// A digest divergence here means the failed transfer mutated the
	// source.
	div, _, err := probe.RunTrace(tr, probe.Arm{}, probe.Arm{Name: "crash", Swap: swap})
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("post-crash divergence: %s", div)
	}
	if crashes != 4 {
		t.Fatalf("crashed %d transfers, want 4", crashes)
	}
}

// The restore's three verification layers each reject a tampered
// checkpoint: a journal outcome that does not reproduce, an env state
// that does not match the replayed table, a frame stack that disagrees.
// checkpointedWorld runs a three-op journal (a span read, a pushed
// Prolog, a package read) on an mpk world and returns the world and its
// journal: the source of every tampered and fuzzed checkpoint below.
func checkpointedWorld(t testing.TB) (*probe.World, []probe.Executed) {
	t.Helper()
	w, err := probe.BuildWorld(twinSpec(), "mpk")
	if err != nil {
		t.Fatal(err)
	}
	var journal []probe.Executed
	record := func(op probe.Op) {
		out, env := probe.ExecOp(w, op)
		pushed := op.Kind == probe.OpProlog && out == "ok"
		if pushed {
			w.PushFrame(env, op.Encl)
		}
		journal = append(journal, probe.Executed{Op: op, Out: out, Pushed: pushed})
		// Mirror the runner: a faulting op aborts the domain; reset it so
		// the next op is judged independently.
		if _, aborted := w.Dom.Aborted(); aborted {
			w.Dom.Reset()
		}
	}
	record(probe.Op{Kind: probe.OpRead, Span: 0})
	record(probe.Op{Kind: probe.OpProlog, Encl: 1, Span: -1})
	record(probe.Op{Kind: probe.OpRead, Pkg: "p1", Sec: 0, Span: -1})
	return w, journal
}

func TestRestoreRejectsTamperedCheckpoints(t *testing.T) {
	w, journal := checkpointedWorld(t)

	// Untampered: the checkpoint round-trips.
	if _, err := MigrateWorld(w, journal); err != nil {
		t.Fatalf("clean migration failed: %v", err)
	}

	tamper := func(name, want string, mutate func(cp *Checkpoint)) {
		cp := CheckpointWorld(w, journal)
		// CheckpointWorld aliases the caller's journal; clone before
		// mutating so one tampered case cannot poison the next.
		cp.Journal = append([]probe.Executed(nil), cp.Journal...)
		cp.State.Envs = append([]litterbox.EnvExport(nil), cp.State.Envs...)
		cp.Frames = append([]int(nil), cp.Frames...)
		mutate(cp)
		_, err := RestoreWorld(cp)
		if err == nil {
			t.Fatalf("%s: tampered checkpoint restored", name)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not mention %q", name, err, want)
		}
	}
	tamper("journal outcome", "state drift", func(cp *Checkpoint) {
		cp.Journal[0].Out = "tampered" // matches no outcome the executor can render
	})
	tamper("env policy", "state verify", func(cp *Checkpoint) {
		cp.State.Envs[len(cp.State.Envs)-1].Cats ^= 1
	})
	tamper("frame stack", "frame stack", func(cp *Checkpoint) {
		cp.Frames = append(cp.Frames, 2)
	})
	// Malformed journal ops are rejected before replay indexes them.
	tamper("prolog e0", "no enclosure e0", func(cp *Checkpoint) {
		cp.Journal[0] = probe.Executed{Op: probe.Op{Kind: probe.OpProlog, Encl: 0, Span: -1}}
	})
	tamper("prolog e99", "no enclosure e99", func(cp *Checkpoint) {
		cp.Journal[0] = probe.Executed{Op: probe.Op{Kind: probe.OpProlog, Encl: 99, Span: -1}}
	})
	tamper("epilog at base", "below the base frame", func(cp *Checkpoint) {
		cp.Journal[0] = probe.Executed{Op: probe.Op{Kind: probe.OpEpilog, Span: -1}}
	})
}

// FuzzRestoreCheckpoint feeds mutated checkpoint bytes from the wire
// through RestoreWorld: every input must restore or be rejected with an
// error, never panic.
func FuzzRestoreCheckpoint(f *testing.F) {
	w, journal := checkpointedWorld(f)
	seed, err := json.Marshal(CheckpointWorld(w, journal))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var cp Checkpoint
		if json.Unmarshal(data, &cp) != nil {
			return
		}
		_, _ = RestoreWorld(&cp)
	})
}
