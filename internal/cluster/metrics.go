package cluster

import (
	"fmt"
	"strings"

	"github.com/litterbox-project/enclosure/internal/engine"
)

// NodeMetrics is one node's cluster-visible statistics, including the
// per-worker run-queue depths and steal counts the balancer's
// least-loaded tiebreak reads.
type NodeMetrics struct {
	Node       string  `json:"node"`
	State      string  `json:"state"`
	Requests   int64   `json:"requests"`
	Routed     int64   `json:"routed"`
	MigratedIn int64   `json:"migrated_in"`
	Load       int     `json:"load"`
	RunQueue   []int   `json:"run_queue"`    // per-worker instantaneous depth
	Steals     []int64 `json:"steals"`       // per-worker cumulative steals
	MaxClockNs int64   `json:"max_clock_ns"` // slowest worker's virtual clock
	Faults     int64   `json:"faults"`
}

// Metrics snapshots one node.
func (n *Node) Metrics() NodeMetrics {
	ms := n.eng.Metrics()
	m := NodeMetrics{
		Node:       n.id,
		State:      n.State().String(),
		Requests:   engine.TotalRequests(ms),
		Routed:     n.routed.Load(),
		MigratedIn: n.migratedIn.Load(),
		Load:       n.Load(),
		RunQueue:   n.eng.QueueDepths(),
		Steals:     n.eng.StealCounts(),
	}
	for _, wm := range ms {
		m.Faults += wm.Faults
		if wm.ClockNs > m.MaxClockNs {
			m.MaxClockNs = wm.ClockNs
		}
	}
	return m
}

// Metrics snapshots every member in join order.
func (c *Cluster) Metrics() []NodeMetrics {
	nodes := c.Nodes()
	out := make([]NodeMetrics, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n.Metrics())
	}
	return out
}

// Stats is the cluster's control-plane counter snapshot.
type Stats struct {
	Routed       int64 `json:"routed"`
	Rerouted     int64 `json:"rerouted"`
	Migrations   int64 `json:"migrations"`
	Joins        int64 `json:"joins"`
	Leaves       int64 `json:"leaves"`
	BlobsShipped int64 `json:"blobs_shipped"`
	BlobsDeduped int64 `json:"blobs_deduped"`
	BytesShipped int64 `json:"bytes_shipped"`
	BytesDeduped int64 `json:"bytes_deduped"`
}

// Stats snapshots the cluster counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Routed:       c.routed.Load(),
		Rerouted:     c.rerouted.Load(),
		Migrations:   c.migrations.Load(),
		Joins:        c.joins.Load(),
		Leaves:       c.leaves.Load(),
		BlobsShipped: c.blobsShipped.Load(),
		BlobsDeduped: c.blobsDeduped.Load(),
		BytesShipped: c.bytesShipped.Load(),
		BytesDeduped: c.bytesDeduped.Load(),
	}
}

// String renders the metrics one line per node (debug helper).
func MetricsString(ms []NodeMetrics) string {
	var sb strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&sb, "%s [%s]: reqs=%d routed=%d load=%d queues=%v steals=%v clock=%dns\n",
			m.Node, m.State, m.Requests, m.Routed, m.Load, m.RunQueue, m.Steals, m.MaxClockNs)
	}
	return sb.String()
}
