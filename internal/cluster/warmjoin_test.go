package cluster

// Warm joins: with Opts.WarmJoin, the first AddNode cold-builds and
// captures a snapshot template; every node — including the first —
// runs a clone instantiated from it, and later joins never cold-build
// again.

import (
	"sync/atomic"
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
)

func TestWarmJoinInstantiatesNodesFromTemplate(t *testing.T) {
	var builds atomic.Int64
	c := newTestCluster(t, Opts{Nodes: 3, Seed: 7, WarmJoin: true,
		Build: func() (*core.Program, error) {
			builds.Add(1)
			return testBuild()
		}})
	if got := builds.Load(); got != 1 {
		t.Fatalf("cold builds = %d, want 1 (template capture only)", got)
	}
	if got := c.warmJoined.Load(); got != 3 {
		t.Fatalf("warm joins = %d, want 3", got)
	}
	for _, n := range c.Nodes() {
		if !n.prog.IsSnapshotInstance() {
			t.Fatalf("node %s runs a cold-built program, want a template clone", n.id)
		}
	}

	// A later join is also warm and the cluster still serves work.
	if _, err := c.AddNode(); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("join after capture cold-built (builds = %d)", got)
	}
	if got := c.warmJoined.Load(); got != 4 {
		t.Fatalf("warm joins = %d, want 4", got)
	}
	done := make(chan error, 1)
	if err := do(c, "session-1", func(task *core.Task) error {
		out, err := task.Prog().MustEnclosure("guard").Call(task)
		_ = out
		done <- err
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestColdJoinWithoutOption(t *testing.T) {
	var builds atomic.Int64
	c := newTestCluster(t, Opts{Nodes: 2, Seed: 7,
		Build: func() (*core.Program, error) {
			builds.Add(1)
			return testBuild()
		}})
	if got := builds.Load(); got != 2 {
		t.Fatalf("cold builds = %d, want 2", got)
	}
	if got := c.warmJoined.Load(); got != 0 {
		t.Fatalf("warm joins = %d, want 0", got)
	}
}
