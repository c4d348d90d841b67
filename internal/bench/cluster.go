package bench

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"github.com/litterbox-project/enclosure/internal/apps/fasthttp"
	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/cluster"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
	"github.com/litterbox-project/enclosure/internal/loadgen"
	"github.com/litterbox-project/enclosure/internal/probe"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// ClusterNodeCounts is the node sweep of the cluster scaling table.
var ClusterNodeCounts = []int{1, 2, 4, 8}

// ClusterWorkersPerNode fixes each node's engine at 8 virtual CPUs, so
// the 8-node row drives 64 vCPUs aggregate.
const ClusterWorkersPerNode = 8

// ClusterRequestsPerVCPU is the measured load per virtual CPU — the
// per-node work is constant across the sweep, so ideal scaling is
// linear in the node count.
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
// pair: each node builds the app's program, and Start installs the
// app's connection handler on the node.
func ClusterApp(app string, kind core.BackendKind) (
	build func() (*core.Program, error),
	start func(n *cluster.Node) (func(), error),
	err error,
) {
	switch app {
	case "HTTP":
		build = func() (*core.Program, error) { return httpserv.Program(kind, httpserv.HandlerPolicy) }
		start = func(n *cluster.Node) (func(), error) {
			n.Handle(httpserv.NewConnHandler(n.Prog().MustEnclosure("handler")))
			return nil, nil
		}
	case "FastHTTP":
		build = func() (*core.Program, error) { return fasthttp.Program(kind, fasthttp.Policy) }
		start = func(n *cluster.Node) (func(), error) {
			conn, stop := fasthttp.NewConnHandler(n.Prog().MustEnclosure("server"), httpserv.StaticPage())
			n.Handle(conn)
			return func() { _ = stop() }, nil
		}
	default:
		return nil, nil, fmt.Errorf("bench: unknown cluster app %q", app)
	}
	return build, start, nil
}

// clusterArrivalNs is the mean interarrival of a cluster run: far past
// any cell's capacity (a request costs tens of virtual µs), so every
// arrival queues at once and every worker stays busy.
const clusterArrivalNs = 1

// DriveCluster serves GETs for the 13KB page through the balancer as
// one discrete-event run on the virtual clock: Poisson arrivals offered
// past capacity, one warm-up request per session (client-0 onward)
// followed by requests more, each routed at its arrival time
// (Cluster.Dispatch) over a simnet pair whose client half checks the
// response, and every node stepped in virtual-time order
// (Cluster.StepUntil). Every node's timeline restarts at zero. Every
// arrival queues at once, so the run must fit the nodes' run queues:
// an arrival that every candidate sheds fails it. It returns the
// completions per virtual second from the first measured arrival to the
// last completion, warm-up requests that complete in that window
// included, as loadgen counts throughput.
func DriveCluster(c *cluster.Cluster, sessions, requests int) (float64, error) {
	for _, n := range c.Nodes() {
		n.Engine().ResetVT()
	}
	times := loadgen.Arrivals(loadgen.Poisson, rand.New(rand.NewSource(1)), sessions+requests, clusterArrivalNs, 0, 0)
	windowStart := times[sessions]
	var lastCompletion int64
	var inWindow int
	observe := func(r engine.StepResult) error {
		if r.Err != nil {
			return fmt.Errorf("bench: cluster request %s: %w", r.Name, r.Err)
		}
		lastCompletion = max(lastCompletion, r.CompletionVT)
		if r.CompletionVT > windowStart {
			inWindow++
		}
		return nil
	}
	req, check := benchGet("/"), bodyLen(httpserv.PageSize13KB)
	var buf []byte
	var bad error
	for i, ta := range times {
		if err := c.StepUntil(ta, observe); err != nil {
			return 0, err
		}
		client, server := simnet.Pair()
		if _, err := client.Write(req); err != nil {
			return 0, err
		}
		// The client half runs at host level once the handler returns:
		// nothing it does is billed to the virtual clock.
		done := func(err error) {
			defer client.Close()
			if err != nil {
				return // the step reports it
			}
			body, err := readBody(client, &buf)
			if err == nil {
				err = check(body)
			}
			if err != nil && bad == nil {
				bad = err
			}
		}
		if _, err := c.Dispatch("client-"+strconv.Itoa(i%sessions), ta, server, done); err != nil {
			return 0, err
		}
	}
	if err := c.StepUntil(math.MaxInt64, observe); err != nil {
		return 0, err
	}
	if bad != nil {
		return 0, fmt.Errorf("bench: cluster response: %w", bad)
	}
	if lastCompletion <= windowStart {
		return 0, fmt.Errorf("bench: cluster run completed nothing after %dns", windowStart)
	}
	return float64(inWindow) / (float64(lastCompletion-windowStart) / 1e9), nil
}

// clusterCell drives one (app, backend, nodes) measurement: a cluster
// of n nodes × 8 workers behind the consistent-hash balancer, offered
// 30 requests per vCPU past capacity from 2 sessions per vCPU
// (DriveCluster).
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
	rps, err := DriveCluster(c, 2*nodes*ClusterWorkersPerNode, total)
	if err != nil {
		return ClusterEntry{}, err
	}
	stats := c.Stats()
	return ClusterEntry{
		App:            app,
		Backend:        kind.String(),
		Nodes:          nodes,
		WorkersPerNode: ClusterWorkersPerNode,
		Requests:       total,
		ReqsPerSec:     rps,
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
	sb.WriteString("behind the consistent-hash balancer. Each cell routes every arrival\n")
	sb.WriteString("at once, past capacity, and steps the nodes on the virtual clock;\n")
	sb.WriteString("speedup is relative to the same app and backend on one node.\n")
	sb.WriteString("blobs=shipped/deduped shows content-addressed image replication:\n")
	sb.WriteString("later identical nodes dedupe 100%.\n\n")
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
