package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/litterbox-project/enclosure/internal/bench"
	"github.com/litterbox-project/enclosure/internal/cluster"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/probe"
)

// runCluster demonstrates the cluster subsystem end to end: N engine
// nodes behind the consistent-hash balancer, content-addressed image
// replication at join, a live session migration, and a graceful leave
// under load that drops nothing.
func runCluster(args []string) {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	backendName := fs.String("backend", "mpk", "baseline|mpk|vtx|cheri")
	nodes := fs.Int("nodes", 4, "initial node count")
	requests := fs.Int("requests", 400, "closed-loop requests to drive")
	seed := fs.Uint64("seed", 0xC1045EED, "balancer hash seed")
	sweep := fs.Int("sweep", 20, "migration digest sweep traces (0 to skip)")
	_ = fs.Parse(args)

	kind, ok := map[string]core.BackendKind{
		"baseline": core.Baseline, "mpk": core.MPK, "vtx": core.VTX, "cheri": core.CHERI,
	}[*backendName]
	if !ok {
		fmt.Fprintf(os.Stderr, "enclose cluster: unknown backend %q\n", *backendName)
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "enclose cluster:", err)
		os.Exit(1)
	}

	build, start, err := bench.ClusterApp("HTTP", kind)
	if err != nil {
		fail(err)
	}

	fmt.Printf("Building %d %s nodes (8 vCPUs each) behind the consistent-hash balancer...\n", *nodes, kind)
	c, err := cluster.New(cluster.Opts{
		Nodes: *nodes, WorkersPerNode: 8, Seed: *seed,
		Build: build, Start: start,
	})
	if err != nil {
		fail(err)
	}
	defer c.Close()
	st := c.Stats()
	fmt.Printf("  image replication: %d blobs shipped by node0, %d deduplicated by the %d later joins (%d bytes saved)\n\n",
		st.BlobsShipped, st.BlobsDeduped, *nodes-1, st.BytesDeduped)

	fmt.Printf("Driving %d closed-loop requests over %d sessions...\n", *requests, 32)
	if err := bench.DriveSessions(c, 32, *requests/32); err != nil {
		fail(err)
	}
	fmt.Println(cluster.MetricsString(c.Metrics()))

	// A node joins live: its image dedupes 100% against the registry.
	before := c.Stats()
	n, err := c.AddNode()
	if err != nil {
		fail(err)
	}
	after := c.Stats()
	fmt.Printf("Join: %s replicated its image — %d/%d blobs deduplicated, %d shipped.\n",
		n.ID(), after.BlobsDeduped-before.BlobsDeduped, before.BlobsShipped, after.BlobsShipped-before.BlobsShipped)

	// A session migrates to the joined node (or, when the balancer
	// already routes it there, to another node): env state re-verified
	// on the target, then the session pins there.
	session := "client-0"
	from, err := c.Route(session)
	if err != nil {
		fail(err)
	}
	to := n
	if to.ID() == from.ID() {
		for _, m := range c.Nodes() {
			if m.ID() != from.ID() {
				to = m // the last other node: node0 leaves below
			}
		}
	}
	if err := c.MigrateSession(session, from.ID(), to.ID()); err != nil {
		fail(err)
	}
	fmt.Printf("Migrate: session %q moved %s -> %s after policy re-verification; routing now honours the pin.\n",
		session, from.ID(), to.ID())

	// A node leaves under load: drained, not dropped.
	if err := c.RemoveNode("node0"); err != nil {
		fail(err)
	}
	if err := bench.DriveSessions(c, 32, *requests/2/32); err != nil {
		fail(err)
	}
	fmt.Printf("Leave: node0 drained and left; %d more requests served by the survivors.\n\n", *requests/2)

	if *sweep > 0 {
		fmt.Printf("Migration digest sweep: %d probe traces, every world force-migrated mid-trace...\n", *sweep)
		migrations := 0
		stats, div, err := probe.Sweep(*seed, *sweep, 40, probe.Arm{}, cluster.MigrateArm(0, &migrations))
		if err != nil {
			fail(err)
		}
		if div != nil {
			fail(fmt.Errorf("migration sweep diverged:\n%s", div))
		}
		fmt.Printf("  %d traces, %d ops, %d world migrations: outcome digests identical to the unmigrated runs on all four backends.\n",
			stats.Traces, stats.Ops, migrations)
	}
}
