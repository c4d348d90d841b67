package cluster

import (
	"encoding/json"
	"fmt"

	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/probe"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// Live migration moves an execution environment between nodes as a
// *verified replay*: the checkpoint carries the world's spec, its
// journal of executed operations with their recorded outcomes, the
// executor's frame stack, and an RCU-consistent export of the whole
// environment table. The target builds a fresh world from the spec
// (deterministic construction: bit-identical layout) and replays the
// journal through the same single-op executor the probe engine uses;
// every replayed outcome must equal the recorded one, or the restore
// is rejected as state drift. After replay the restored environment
// table is re-verified against the shipped snapshot — the same policy
// re-verification a cluster node runs before accepting a migrated
// session — and the frame stack must match. Only then does execution
// resume on the target.
//
// This is the checkpoint/restore discipline of the rest of the repo
// applied across nodes: no mechanism without a cross-checked reference.
// The probe integration (MigrateArm) pins the end result — a migrated
// environment produces bit-identical outcomes to one that never moved,
// on all four backends.

// Checkpoint is one world's migratable state.
type Checkpoint struct {
	World   string                `json:"world"` // backend name
	Spec    probe.WorldSpec       `json:"spec"`
	Journal []probe.Executed      `json:"journal"`
	Frames  []int                 `json:"frames"`
	State   litterbox.StateExport `json:"state"`
}

// CheckpointWorld captures a world's migratable state: its spec, the
// executed-op journal (supplied by the runner), the executor's frame
// stack, and one consistent env-state snapshot.
func CheckpointWorld(w *probe.World, journal []probe.Executed) *Checkpoint {
	return &Checkpoint{
		World:   w.Name,
		Spec:    w.Spec,
		Journal: journal,
		Frames:  w.Frames(),
		State:   w.LB.ExportState(),
	}
}

// SendCheckpoint ships a checkpoint as one control frame.
func SendCheckpoint(mc *simnet.MsgConn, cp *Checkpoint) error {
	data, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	return mc.Send(data)
}

// RecvCheckpoint receives a checkpoint frame.
func RecvCheckpoint(mc *simnet.MsgConn) (*Checkpoint, error) {
	data, err := mc.Recv()
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("cluster: malformed checkpoint: %w", err)
	}
	return &cp, nil
}

// RestoreWorld rebuilds a world from a checkpoint on the "target node":
// deterministic construction from the spec, verified journal replay,
// then policy re-verification of the environment table and the frame
// stack. Any mismatch rejects the restore — the caller resumes on the
// source instead.
func RestoreWorld(cp *Checkpoint) (*probe.World, error) {
	w, err := probe.BuildWorld(cp.Spec, cp.World)
	if err != nil {
		return nil, fmt.Errorf("cluster: restore %s: build: %w", cp.World, err)
	}
	for i, ex := range cp.Journal {
		if err := w.CheckOp(ex.Op); err != nil {
			return nil, fmt.Errorf("cluster: restore %s: journal op %d: %w", cp.World, i, err)
		}
		out, env := probe.ExecOp(w, ex.Op)
		if out != ex.Out {
			return nil, fmt.Errorf(
				"cluster: restore %s: state drift at journal op %d (%s): replay %q, source recorded %q",
				cp.World, i, ex.Op.String(), out, ex.Out)
		}
		// Mirror the runner: a faulting op aborts the domain, which is
		// reset so the next op is judged independently.
		if _, aborted := w.Dom.Aborted(); aborted {
			w.Dom.Reset()
		}
		switch ex.Op.Kind {
		case probe.OpProlog:
			if ex.Pushed {
				if env == nil {
					return nil, fmt.Errorf(
						"cluster: restore %s: journal op %d pushed a frame but replay entered no environment",
						cp.World, i)
				}
				w.PushFrame(env, ex.Op.Encl)
			}
		case probe.OpEpilog:
			w.PopFrame()
		}
	}
	// Policy re-verification: the replayed environment table must match
	// the shipped snapshot exactly.
	if err := w.LB.VerifyState(cp.State); err != nil {
		return nil, fmt.Errorf("cluster: restore %s: %w", cp.World, err)
	}
	if !equalInts(w.Frames(), cp.Frames) {
		return nil, fmt.Errorf("cluster: restore %s: frame stack %v != checkpoint %v",
			cp.World, w.Frames(), cp.Frames)
	}
	return w, nil
}

// MigrateWorld performs a full live migration of one probe world:
// checkpoint on the source, transfer over a simnet connection, restore
// and re-verify on the target. On any error the source world is
// untouched and execution resumes there — the node-crash-during-
// transfer contract.
func MigrateWorld(w *probe.World, journal []probe.Executed) (*probe.World, error) {
	src, dst := simnet.Pair()
	return migrateOver(w, journal, simnet.NewMsgConn(src), simnet.NewMsgConn(dst))
}

// MigrateArm is the probe arm that live-migrates every world through
// MigrateWorld after at executed operations (zero: half the trace's
// executed operations). migrations, if non-nil, counts the swaps.
func MigrateArm(at int, migrations *int) probe.Arm {
	return probe.Arm{Name: "migrate", SwapAt: at, Swap: func(w *probe.World, journal []probe.Executed) (*probe.World, error) {
		if migrations != nil {
			*migrations++
		}
		return MigrateWorld(w, journal)
	}}
}

// migrateOver runs the transfer over explicit endpoints so tests can
// sever the connection mid-flight.
func migrateOver(w *probe.World, journal []probe.Executed, src, dst *simnet.MsgConn) (*probe.World, error) {
	cp := CheckpointWorld(w, journal)
	sendErr := make(chan error, 1)
	go func() {
		defer src.Close()
		sendErr <- SendCheckpoint(src, cp)
	}()
	got, err := RecvCheckpoint(dst)
	dst.Close()
	if err != nil {
		<-sendErr
		return nil, fmt.Errorf("cluster: transfer: %w", err)
	}
	if err := <-sendErr; err != nil {
		return nil, fmt.Errorf("cluster: transfer: %w", err)
	}
	return RestoreWorld(got)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
