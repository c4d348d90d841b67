package bench

import (
	"encoding/json"
	"fmt"

	"github.com/litterbox-project/enclosure/internal/attacks"
	"github.com/litterbox-project/enclosure/internal/obs"
)

// Results is the machine-readable form of an evaluation run: Collect
// fills the fields of the sections it runs, `enclosebench -json`
// writes it, and the package tests check it.
type Results struct {
	Table1  []MicroEntry   `json:"table1"`
	Table2  []MacroEntry   `json:"table2"`
	TCB     []TCBRow       `json:"tcb"`
	Figure5 []MacroEntry   `json:"figure5"`
	Scale   []ScaleEntry   `json:"scale"`
	Cluster []ClusterEntry `json:"cluster,omitempty"`
	// ClusterMigration reports the forced-migration probe sweep: its
	// digests must match the unmigrated sweep on all four backends.
	ClusterMigration *ClusterMigrationResult `json:"cluster_migration,omitempty"`
	Fastpath         *FastpathResult         `json:"fastpath,omitempty"`
	// Ring reports the batched-syscall-ring sweep: FastHTTP /stream
	// throughput per backend with the submission ring off and on.
	Ring []RingEntry `json:"ring,omitempty"`
	// Churn reports the warm-enclosure instantiation sweep: cold build
	// vs snapshot clone vs recycled instance per backend × workers,
	// plus the clone-vs-cold digest-equivalence probe sweep.
	Churn *ChurnResult `json:"churn,omitempty"`
	// Latency reports the open-loop load-generator sweep:
	// coordinated-omission-free p50/p99/p99.9 and shed rate per
	// backend × worker count × offered load.
	Latency  []LatencyEntry    `json:"latency,omitempty"`
	Probe    *ProbeBenchResult `json:"probe,omitempty"`
	Python   []PythonEntry     `json:"python"`
	Security []SecurityEntry   `json:"security"`
	// Figure4 is the linked image dump and Ablations the design-choice
	// studies; both are text-only sections.
	Figure4   string            `json:"figure4,omitempty"`
	Ablations []AblationResult  `json:"ablations,omitempty"`
	Paper     map[string]string `json:"paper_reference"`

	// Trace is the merged observability snapshot of the scale section:
	// per-kind, per-syscall, and per-worker aggregates over every cell's
	// program.
	Trace *obs.Snapshot `json:"trace,omitempty"`

	// securityReports are the §6.5 reports Security was made from; the
	// text table renders them with attacks.Report.String.
	securityReports []attacks.Report
}

// MicroEntry is one Table 1 cell.
type MicroEntry struct {
	Backend string  `json:"backend"`
	Op      string  `json:"op"`
	Ns      float64 `json:"virtual_ns_per_op"`
}

// MacroEntry is one Table 2 / Figure 5 cell.
type MacroEntry struct {
	Benchmark string  `json:"benchmark"`
	Backend   string  `json:"backend"`
	Raw       float64 `json:"raw"`
	Unit      string  `json:"unit"`
	Slowdown  float64 `json:"slowdown"`
	Switches  int64   `json:"switches"`
	Syscalls  int64   `json:"syscalls"`
	Transfers int64   `json:"transfers"`
}

// PythonEntry is one §6.4 experiment row.
type PythonEntry struct {
	Mode      string  `json:"mode"`
	Backend   string  `json:"backend"`
	Slowdown  float64 `json:"slowdown"`
	Switches  int64   `json:"switches"`
	InitShare float64 `json:"init_share"`
	SysShare  float64 `json:"syscall_share"`
}

// SecurityEntry is one §6.5 scenario row.
type SecurityEntry struct {
	Scenario  string `json:"scenario"`
	Backend   string `json:"backend"`
	Protected bool   `json:"protected"`
	LegitOK   bool   `json:"legit_ok"`
	Blocked   bool   `json:"blocked"`
	LootBytes int    `json:"loot_bytes"`
}

// MarshalResults renders the results as indented JSON.
func MarshalResults(r *Results) ([]byte, error) {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bench: marshalling results: %w", err)
	}
	return append(blob, '\n'), nil
}
