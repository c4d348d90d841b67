package bench

import (
	"fmt"
	"strings"

	"github.com/litterbox-project/enclosure/internal/cluster"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/loadgen"
	"github.com/litterbox-project/enclosure/internal/probe"
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

// clusterCell measures one (app, backend, nodes) cell as a loadgen
// discrete-event run on a cluster of n nodes × 8 workers behind the
// consistent-hash balancer: 30 requests per vCPU offered far past
// capacity, as in a scale cell, routed over 2 sessions per vCPU. Every
// arrival queues at once on the nodes' run queues, which hold them all:
// a cell that sheds fails.
func clusterCell(app string, kind core.BackendKind, nodes int) (entry ClusterEntry, err error) {
	tg, c, err := loadgen.NewClusterTarget(app, kind, cluster.Opts{
		Nodes:          nodes,
		WorkersPerNode: ClusterWorkersPerNode,
		Seed:           0xC1045EED,
	})
	if err != nil {
		return ClusterEntry{}, err
	}
	defer func() {
		if cerr := tg.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	vcpus := nodes * ClusterWorkersPerNode
	total := ClusterRequestsPerVCPU * vcpus
	res, err := loadgen.Run(tg, loadgen.Spec{
		Seed:        1,
		Requests:    total,
		OfferedLoad: 1e6,
		Sessions:    2 * vcpus,
		Mix:         []loadgen.MixEntry{{Kind: "page", Weight: 1}},
	})
	if err != nil {
		return ClusterEntry{}, err
	}
	if res.Shed > 0 {
		return ClusterEntry{}, fmt.Errorf("bench: cluster run shed %d of %d arrivals", res.Shed, total)
	}
	stats := c.Stats()
	return ClusterEntry{
		App:            app,
		Backend:        kind.String(),
		Nodes:          nodes,
		WorkersPerNode: ClusterWorkersPerNode,
		Requests:       total,
		ReqsPerSec:     res.ThroughputRPS,
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
	sb.WriteString("behind the consistent-hash balancer. Each cell is a loadgen run past\n")
	sb.WriteString("capacity: every arrival is routed at once and the nodes step on the\n")
	sb.WriteString("virtual clock; speedup is relative to the same app and backend on one node.\n")
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
