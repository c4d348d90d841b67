package bench

import (
	"fmt"
	"strings"
	"sync"

	"github.com/litterbox-project/enclosure/internal/apps/fasthttp"
	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/cluster"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
	"github.com/litterbox-project/enclosure/internal/probe"
)

// ClusterNodeCounts is the node sweep of the cluster scaling table.
var ClusterNodeCounts = []int{1, 2, 4, 8}

// ClusterWorkersPerNode fixes each node's engine at 8 virtual CPUs, so
// the 8-node row drives 64 vCPUs aggregate.
const ClusterWorkersPerNode = 8

// ClusterRequestsPerVCPU is the measured closed-loop load per virtual
// CPU — the per-node work is constant across the sweep, so ideal
// scaling is linear in the node count.
const ClusterRequestsPerVCPU = 30

// ClusterPairs are the app/backend pairs the cluster table sweeps.
var ClusterPairs = []struct {
	App  string
	Kind core.BackendKind
}{
	{"HTTP", core.MPK},
	{"HTTP", core.VTX},
	{"FastHTTP", core.MPK},
}

// ClusterPort is the per-node data-plane port; every node has its own
// simnet, so the port does not collide across nodes.
const ClusterPort = 8200

// ClusterEntry is one cell of the cluster scaling table.
type ClusterEntry struct {
	App            string  `json:"app"`
	Backend        string  `json:"backend"`
	Nodes          int     `json:"nodes"`
	WorkersPerNode int     `json:"workers_per_node"`
	Requests       int     `json:"requests"`
	ReqsPerSec     float64 `json:"reqs_per_sec"`
	// Speedup is aggregate throughput relative to the same app and
	// backend on one node.
	Speedup float64 `json:"speedup"`
	// BlobsShipped/BlobsDeduped summarise image replication at cluster
	// build: the first node ships every blob, every later identical
	// node dedupes 100%.
	BlobsShipped int64 `json:"blobs_shipped"`
	BlobsDeduped int64 `json:"blobs_deduped"`
	BytesDeduped int64 `json:"bytes_deduped"`
}

// ClusterApp returns the Build and Start hooks for one app/backend
// pair: each node builds the app's program and serves it on
// ClusterPort through a sharded accept loop.
func ClusterApp(app string, kind core.BackendKind) (
	build func() (*core.Program, error),
	start func(n *cluster.Node) (func(), error),
	err error,
) {
	switch app {
	case "HTTP":
		build = func() (*core.Program, error) { return httpserv.Program(kind, httpserv.HandlerPolicy) }
		start = func(n *cluster.Node) (func(), error) {
			conn := httpserv.NewConnHandler(n.Prog().MustEnclosure("handler"))
			srv, err := n.Engine().Serve(engine.ServeOpts{Port: ClusterPort, Conn: conn})
			if err != nil {
				return nil, err
			}
			return func() { srv.Close() }, nil
		}
	case "FastHTTP":
		build = func() (*core.Program, error) { return fasthttp.Program(kind, fasthttp.Policy) }
		start = func(n *cluster.Node) (func(), error) {
			conn, stop := fasthttp.NewConnHandler(n.Prog().MustEnclosure("server"), httpserv.StaticPage())
			srv, err := n.Engine().Serve(engine.ServeOpts{Port: ClusterPort, Conn: conn})
			if err != nil {
				return nil, err
			}
			return func() {
				srv.Close()
				_ = stop()
			}, nil
		}
	default:
		return nil, nil, fmt.Errorf("bench: unknown cluster app %q", app)
	}
	return build, start, nil
}

// DriveSessions loads a cluster closed-loop: sessions concurrent
// clients, named client-0 onward, each send perSession requests for the
// 13KB page to whichever node the balancer routes their session to. It
// returns the first error.
func DriveSessions(c *cluster.Cluster, sessions, perSession int) error {
	req, check := benchGet("/"), bodyLen(httpserv.PageSize13KB)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for cl := 0; cl < sessions; cl++ {
		wg.Add(1)
		go func(session string) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < perSession; i++ {
				n, err := c.Route(session)
				if err == nil {
					var body []byte
					if body, err = HTTPGet(n.Prog().Net(), ClusterPort, req, &buf); err == nil {
						err = check(body)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(fmt.Sprintf("client-%d", cl))
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// clusterCell drives one (app, backend, nodes) measurement: a cluster
// of n nodes × 8 workers behind the consistent-hash balancer, loaded
// closed-loop by 2 clients per vCPU, each client a session the ring
// routes. Aggregate elapsed virtual time is the slowest node's
// slowest-worker clock advance — the wall clock of a cluster whose
// nodes run in parallel.
func clusterCell(app string, kind core.BackendKind, nodes int) (ClusterEntry, error) {
	build, start, err := ClusterApp(app, kind)
	if err != nil {
		return ClusterEntry{}, err
	}
	c, err := cluster.New(cluster.Opts{
		Nodes:          nodes,
		WorkersPerNode: ClusterWorkersPerNode,
		Seed:           0xC1045EED,
		Build:          build,
		Start:          start,
	})
	if err != nil {
		return ClusterEntry{}, err
	}
	defer c.Close()

	total := ClusterRequestsPerVCPU * nodes * ClusterWorkersPerNode
	conc := 2 * nodes * ClusterWorkersPerNode
	// Warm-up: one request per client primes every node's buffers.
	if err := DriveSessions(c, conc, 1); err != nil {
		return ClusterEntry{}, err
	}
	members := c.Nodes()
	before := make([][]engine.WorkerMetrics, len(members))
	for i, n := range members {
		before[i] = n.Engine().Metrics()
	}
	if err := DriveSessions(c, conc, total/conc); err != nil {
		return ClusterEntry{}, err
	}
	var elapsed int64
	for i, n := range members {
		if e := engine.ElapsedNs(before[i], n.Engine().Metrics()); e > elapsed {
			elapsed = e
		}
	}
	if elapsed <= 0 {
		return ClusterEntry{}, fmt.Errorf("bench: cluster %s/%s/%d nodes: no virtual time elapsed", app, kind, nodes)
	}
	stats := c.Stats()
	return ClusterEntry{
		App:            app,
		Backend:        kind.String(),
		Nodes:          nodes,
		WorkersPerNode: ClusterWorkersPerNode,
		Requests:       total,
		ReqsPerSec:     float64(total) / (float64(elapsed) / 1e9),
		BlobsShipped:   stats.BlobsShipped,
		BlobsDeduped:   stats.BlobsDeduped,
		BytesDeduped:   stats.BytesDeduped,
	}, nil
}

// runCluster sweeps the cluster scaling matrix: every app/backend pair
// at 1, 2, 4, and 8 nodes, with speedups computed against each pair's
// one-node cell.
func runCluster() ([]ClusterEntry, error) {
	var out []ClusterEntry
	base := make(map[string]float64) // app/backend → 1-node reqs/s
	for _, pair := range ClusterPairs {
		for _, nodes := range ClusterNodeCounts {
			entry, err := clusterCell(pair.App, pair.Kind, nodes)
			if err != nil {
				return nil, fmt.Errorf("bench: cluster %s/%s/%d nodes: %w", pair.App, pair.Kind, nodes, err)
			}
			key := pair.App + "/" + entry.Backend
			if nodes == 1 {
				base[key] = entry.ReqsPerSec
			}
			if b := base[key]; b > 0 {
				entry.Speedup = entry.ReqsPerSec / b
			}
			out = append(out, entry)
		}
	}
	return out, nil
}

// ClusterMigrationResult is the machine-readable form of the migration
// sweep: n probe traces run unmigrated and with a forced mid-trace
// migration of every world, with the outcome digests required to match
// bit-for-bit on all four backends.
type ClusterMigrationResult struct {
	Traces       int  `json:"traces"`
	Ops          int  `json:"ops"`
	Migrations   int  `json:"migrations"`
	DynImports   int  `json:"dyn_imports"`
	DigestsMatch bool `json:"digests_match"`
}

// runClusterMigration runs the migration sweep for the JSON results.
// The sweep stops at the first digest mismatch and returns it as an
// error carrying the seed, so a returned result always has DigestsMatch
// true. Migrations counts the migrate arm's swaps.
func runClusterMigration(traces int) (ClusterMigrationResult, error) {
	migrations := 0
	stats, div, err := probe.Sweep(0xC1057E2, traces, 40, probe.Arm{}, cluster.MigrateArm(0, &migrations))
	if err != nil {
		return ClusterMigrationResult{}, err
	}
	if div != nil {
		return ClusterMigrationResult{}, fmt.Errorf("migration sweep diverged:\n%s", div)
	}
	return ClusterMigrationResult{
		Traces:       stats.Traces,
		Ops:          stats.Ops,
		Migrations:   migrations,
		DynImports:   stats.DynImports,
		DigestsMatch: true,
	}, nil
}

// renderClusterTable formats the cluster scaling sweep.
func renderClusterTable(entries []ClusterEntry) string {
	var sb strings.Builder
	sb.WriteString("Cluster: aggregate throughput across engine nodes (8 vCPUs each)\n")
	sb.WriteString("behind the consistent-hash balancer. Elapsed virtual time is the\n")
	sb.WriteString("slowest node's slowest-worker clock advance; speedup is relative to\n")
	sb.WriteString("the same app and backend on one node. blobs=shipped/deduped shows\n")
	sb.WriteString("content-addressed image replication: later identical nodes dedupe 100%.\n\n")
	fmt.Fprintf(&sb, "%-10s %-10s %6s %8s %6s %12s %9s %14s\n",
		"App", "Backend", "Nodes", "Workers", "Reqs", "reqs/s", "speedup", "blobs")
	var prev string
	for _, e := range entries {
		key := e.App + "/" + e.Backend
		if prev != "" && key != prev {
			sb.WriteByte('\n')
		}
		prev = key
		fmt.Fprintf(&sb, "%-10s %-10s %6d %8d %6d %12.0f %8.2fx %8d/%d\n",
			e.App, e.Backend, e.Nodes, e.Nodes*e.WorkersPerNode, e.Requests,
			e.ReqsPerSec, e.Speedup, e.BlobsShipped, e.BlobsDeduped)
	}
	return sb.String()
}
