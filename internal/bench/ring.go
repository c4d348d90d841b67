package bench

// The batched-syscall-ring benchmark: FastHTTP's GET /stream endpoint
// issues ~258 filtered system calls per request with near-zero compute
// between them — the syscall-dense hot loop the submission ring
// targets. Each backend serves the same closed-loop request sequence
// twice, once with the ring disabled (every call pays the full
// sequential trap) and once at the configured queue depth, and the
// entry reports the virtual-time throughput ratio.

import (
	"fmt"
	"strings"

	"github.com/litterbox-project/enclosure/internal/apps/fasthttp"
	"github.com/litterbox-project/enclosure/internal/core"
)

// RingDepth is the submission-queue depth the sweep measures — the
// ISSUE's acceptance gate is stated at depth 32.
const RingDepth = 32

// RingRequests is the closed-loop request count per cell. /stream is
// two orders of magnitude more syscall-dense than "/", so fewer
// requests than HTTPRequests give a stable measurement.
const RingRequests = 150

// RingEntry is one backend row of `enclosebench -table ring`.
type RingEntry struct {
	App              string  `json:"app"`
	Backend          string  `json:"backend"`
	Depth            int     `json:"depth"`
	Requests         int     `json:"requests"`
	UnbatchedReqsSec float64 `json:"unbatched_reqs_per_sec"`
	BatchedReqsSec   float64 `json:"batched_reqs_per_sec"`
	Speedup          float64 `json:"speedup"`
	Batches          int64   `json:"batches"`  // ring batches drained in the batched run
	Entries          int64   `json:"entries"`  // ring entries completed in the batched run
	Syscalls         int64   `json:"syscalls"` // filtered syscalls in the batched run
}

// runRingFastHTTP serves RingRequests closed-loop /stream requests from
// the enclosed FastHTTP server and returns its virtual-time throughput
// and counters. depth 0 builds the program without the ring option: Task.SubmitSyscall
// then executes each entry immediately through the sequential gateway,
// so both arms run the identical application code.
func runRingFastHTTP(kind core.BackendKind, depth int) (MacroResult, error) {
	var opts []core.Option
	if depth > 0 {
		opts = append(opts, core.WithSyscallRing(depth))
	}
	prog, err := fasthttp.Program(kind, fasthttp.Policy, opts...)
	if err != nil {
		return MacroResult{}, err
	}
	rate, err := runClosedLoop(prog, fastHTTPLoop(prog, 8082, RingRequests, "/stream", fasthttp.StreamBodyBytes))
	return serialResult("FastHTTP /stream", kind, prog, rate, err)
}

// runRing sweeps the four backends over the /stream workload, ring off
// vs ring on at RingDepth.
func runRing() ([]RingEntry, error) {
	var out []RingEntry
	for _, kind := range ProjectionBackends {
		off, err := runRingFastHTTP(kind, 0)
		if err != nil {
			return nil, fmt.Errorf("%v ring-off: %w", kind, err)
		}
		on, err := runRingFastHTTP(kind, RingDepth)
		if err != nil {
			return nil, fmt.Errorf("%v ring-on: %w", kind, err)
		}
		e := RingEntry{
			App:              "fasthttp /stream",
			Backend:          kind.String(),
			Depth:            RingDepth,
			Requests:         RingRequests,
			UnbatchedReqsSec: off.Raw,
			BatchedReqsSec:   on.Raw,
			Batches:          on.Counters.RingBatches,
			Entries:          on.Counters.RingEntries,
			Syscalls:         on.Counters.Syscalls,
		}
		if off.Raw > 0 {
			e.Speedup = on.Raw / off.Raw
		}
		out = append(out, e)
	}
	return out, nil
}

// renderRingTable formats the ring sweep.
func renderRingTable(entries []RingEntry) string {
	var sb strings.Builder
	sb.WriteString("Batched syscall submission ring: FastHTTP GET /stream\n")
	fmt.Fprintf(&sb, "(%d chunk sends per request, queue depth %d, %d closed-loop requests).\n\n",
		fasthttp.StreamSyscalls-2, RingDepth, RingRequests)
	fmt.Fprintf(&sb, "%-10s %14s %14s %9s %10s %10s\n",
		"", "ring off", "ring on", "speedup", "batches", "entries")
	for _, e := range entries {
		fmt.Fprintf(&sb, "%-10s %8.0freqs/s %8.0freqs/s %8.2fx %10d %10d\n",
			e.Backend, e.UnbatchedReqsSec, e.BatchedReqsSec, e.Speedup, e.Batches, e.Entries)
	}
	sb.WriteString("\n(speedup is virtual-time throughput, batched vs sequential; batches\n")
	sb.WriteString(" and entries count the batched run's ring drains)\n")
	return sb.String()
}
