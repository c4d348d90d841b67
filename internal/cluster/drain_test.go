package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
)

// Conservation under membership change: a node leaving mid-load drops
// zero requests. Every admission succeeds, every job runs exactly once, and
// the per-node engine counters sum to the offered load — the departing
// node finishes what it admitted before it stops.
func TestClusterDrainDropsNothing(t *testing.T) {
	c := newTestCluster(t, Opts{Nodes: 3, Seed: 17, WorkersPerNode: 2})
	members := c.Nodes() // hold handles: the departed node's counters still count

	const (
		clients = 8
		perC    = 60
	)
	var ran atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				session := fmt.Sprintf("s%d", (g*perC+i)%24)
				err := do(c, session, func(tk *core.Task) error {
					tk.Compute(2000)
					time.Sleep(20 * time.Microsecond) // widen the drain window
					ran.Add(1)
					return nil
				})
				if err != nil {
					errs <- fmt.Errorf("client %d request %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}

	// Take a node out while the load is in flight.
	time.Sleep(2 * time.Millisecond)
	if err := c.RemoveNode("node1"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatalf("a request was dropped: %v", err)
	}

	const total = clients * perC
	if got := ran.Load(); got != total {
		t.Fatalf("%d jobs ran, want %d", got, total)
	}
	var executed int64
	for _, n := range members {
		executed += n.Metrics().Requests
	}
	if executed != total {
		t.Fatalf("engines executed %d requests, want %d: work was dropped or duplicated", executed, total)
	}

	if c.Size() != 2 {
		t.Fatalf("cluster size %d after leave, want 2", c.Size())
	}
	if gone, _ := c.Node("node1"); gone != nil {
		t.Fatal("departed node still a member")
	}
	if members[1].State() != NodeLeft {
		t.Fatalf("departed node state %s, want left", members[1].State())
	}
	if c.Stats().Leaves != 1 {
		t.Fatalf("leave counter %d, want 1", c.Stats().Leaves)
	}

	// The survivors still serve.
	if err := do(c, "after-leave", func(tk *core.Task) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// Removing every node leaves a routable-to-nothing cluster: admission
// fails with ErrNoNodes rather than hanging or panicking.
func TestClusterNoNodes(t *testing.T) {
	c := newTestCluster(t, Opts{Nodes: 1, Seed: 2})
	if err := c.RemoveNode("node0"); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit("s", engine.JobSpec{Name: "job", Fn: func(tk *core.Task) error { return nil }})
	if !errors.Is(err, ErrNoNodes) {
		t.Fatalf("admission with no members returned %v, want ErrNoNodes", err)
	}
}

// A leaving node steps the requests routed to it before it stops:
// jobs admitted but not yet stepped all complete on the departing node,
// and only then does the stopper Opts.Start returned run.
func TestClusterDrainStepsQueued(t *testing.T) {
	stoppedAt := map[string]int64{} // node → requests stepped when its app stopped
	c := newTestCluster(t, Opts{Nodes: 2, Seed: 17, WorkersPerNode: 2,
		Start: func(n *Node) (func(), error) {
			return func() { stoppedAt[n.ID()] = n.Metrics().Requests }, nil
		}})
	const reqs = 16
	done := map[string]int{}
	for i := 0; i < reqs; i++ {
		n, err := c.Submit(fmt.Sprintf("s%d", i), engine.JobSpec{
			Name: "req", ArrivalVT: int64(i),
			Fn: func(tk *core.Task) error { tk.Compute(1000); return nil },
			Done: func(err error) {
				if err != nil {
					t.Error(err)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		done[n.ID()]++
	}
	leaving, _ := c.Node("node0")
	if got := leaving.Load(); got != done["node0"] || got == 0 {
		t.Fatalf("node0 holds %d queued requests, want the %d routed to it", got, done["node0"])
	}
	if err := c.RemoveNode("node0"); err != nil {
		t.Fatal(err)
	}
	if got := leaving.Metrics().Requests; got != int64(done["node0"]) {
		t.Fatalf("node0 stepped %d requests before leaving, want %d", got, done["node0"])
	}
	if got := stoppedAt["node0"]; got != int64(done["node0"]) {
		t.Fatalf("node0's app stopped after %d of its %d requests", got, done["node0"])
	}
	if err := c.StepUntil(math.MaxInt64, nil); err != nil {
		t.Fatal(err)
	}
	var executed int64
	for _, m := range c.Metrics() {
		executed += m.Requests
	}
	if executed+leaving.Metrics().Requests != reqs {
		t.Fatalf("%d requests executed, want %d", executed+leaving.Metrics().Requests, reqs)
	}
}
