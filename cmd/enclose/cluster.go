package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/cluster"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/probe"
	"github.com/litterbox-project/enclosure/internal/simnet"
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

	const port = 8200
	build := func() (*core.Program, error) { return httpserv.ConnProgram(kind) }
	start := func(n *cluster.Node) (func(), error) {
		srv, err := httpserv.ServeEngine(n.Engine(), port, n.Prog().MustEnclosure("handler"))
		if err != nil {
			return nil, err
		}
		return func() { srv.Close() }, nil
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

	get := func(session string) error {
		n, err := c.Route(session)
		if err != nil {
			return err
		}
		got, err := httpGet(n.Prog().Net(), port, "/")
		if err != nil {
			return err
		}
		if got != httpserv.PageSize13KB {
			return fmt.Errorf("body %dB, want %dB", got, httpserv.PageSize13KB)
		}
		return nil
	}
	drive := func(total, conc int) error {
		var wg sync.WaitGroup
		errs := make(chan error, conc)
		for cl := 0; cl < conc; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				session := fmt.Sprintf("client-%d", cl)
				for i := 0; i < total/conc; i++ {
					if err := get(session); err != nil {
						errs <- err
						return
					}
				}
			}(cl)
		}
		wg.Wait()
		close(errs)
		return <-errs
	}

	fmt.Printf("Driving %d closed-loop requests over %d sessions...\n", *requests, 32)
	if err := drive(*requests, 32); err != nil {
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

	// A session migrates: env state re-verified on the target, then the
	// session pins there.
	session := "client-0"
	from, err := c.Route(session)
	if err != nil {
		fail(err)
	}
	if err := c.MigrateSession(session, from.ID(), n.ID()); err != nil {
		fail(err)
	}
	fmt.Printf("Migrate: session %q moved %s -> %s after policy re-verification; routing now honours the pin.\n",
		session, from.ID(), n.ID())

	// A node leaves under load: drained, not dropped.
	if err := c.RemoveNode("node0"); err != nil {
		fail(err)
	}
	if err := drive(*requests/2, 32); err != nil {
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

// httpGet performs one closed-loop request against a node's data-plane
// network and returns the body length. The client dials from its own
// host IP — the external load generator, billed to no virtual clock.
func httpGet(net *simnet.Net, port uint16, path string) (int, error) {
	conn, err := net.Dial(simnet.HostIP(10, 0, 0, 99), simnet.Addr{Host: core.DefaultHostIP, Port: port})
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET " + path + " HTTP/1.1\r\nHost: demo\r\n\r\n")); err != nil {
		return 0, err
	}
	var resp []byte
	buf := make([]byte, 32*1024)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			resp = append(resp, buf[:n]...)
		}
		if err != nil {
			break // server closed: response complete
		}
	}
	s := string(resp)
	if !strings.HasPrefix(s, "HTTP/1.1 200 OK") {
		return 0, fmt.Errorf("bad response: %.60q", s)
	}
	_, body, ok := strings.Cut(s, "\r\n\r\n")
	if !ok {
		return 0, fmt.Errorf("no header/body separator")
	}
	return len(body), nil
}
