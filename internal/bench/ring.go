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
	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/hw"
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
// the enclosed FastHTTP server and returns the virtual-time throughput.
// depth 0 builds the program without the ring option: Task.SubmitSyscall
// then executes each entry immediately through the sequential gateway,
// so both arms run the identical application code.
func runRingFastHTTP(kind core.BackendKind, depth int) (float64, hw.CounterSnapshot, error) {
	var opts []core.Option
	if depth > 0 {
		opts = append(opts, core.WithSyscallRing(depth))
	}
	b := core.NewBuilder(kind, opts...)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{fasthttp.Pkg},
		Vars:    map[string]int{"db_password": 64},
		Origin:  "app", LOC: 76,
	})
	fasthttp.Register(b)
	b.Enclosure("server", "main", fasthttp.Policy,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call(fasthttp.Pkg, "Serve", args[0])
		}, fasthttp.Pkg)
	prog, err := b.Build()
	if err != nil {
		return 0, hw.CounterSnapshot{}, err
	}

	const port = 8082
	ready := make(chan struct{})
	reqCh := make(chan fasthttp.Request, 16)
	page := httpserv.StaticPage()
	var reqs int
	var elapsed int64
	err = prog.Run(func(t *core.Task) error {
		handler := t.Go("trusted-handler", func(t *core.Task) error {
			return fasthttp.HandleLoop(t, reqCh, page)
		})
		srv := t.Go("fasthttp-server", func(t *core.Task) error {
			_, err := prog.MustEnclosure("server").Call(t, fasthttp.ServeArgs{
				Port:  port,
				Reqs:  reqCh,
				Ready: ready,
			})
			return err
		})
		<-ready
		if _, err := httpGet(prog.Net(), port, "/warmup"); err != nil {
			return err
		}
		start := prog.Clock().Now()
		for i := 0; i < RingRequests; i++ {
			n, err := httpGet(prog.Net(), port, "/stream")
			if err != nil {
				return fmt.Errorf("request %d: %w", i, err)
			}
			if n != fasthttp.StreamBodyBytes {
				return fmt.Errorf("request %d: body %dB, want %dB", i, n, fasthttp.StreamBodyBytes)
			}
			reqs++
		}
		elapsed = prog.Clock().Now() - start
		if _, err := httpGet(prog.Net(), port, "/quit"); err != nil {
			return err
		}
		if err := srv.Join(); err != nil {
			return err
		}
		return handler.Join()
	})
	if err != nil {
		return 0, hw.CounterSnapshot{}, err
	}
	return float64(reqs) / (float64(elapsed) / 1e9), prog.Counters().Snapshot(), nil
}

// runRing sweeps the four backends over the /stream workload, ring off
// vs ring on at RingDepth.
func runRing() ([]RingEntry, error) {
	var out []RingEntry
	for _, kind := range ProjectionBackends {
		off, _, err := runRingFastHTTP(kind, 0)
		if err != nil {
			return nil, fmt.Errorf("%v ring-off: %w", kind, err)
		}
		on, counters, err := runRingFastHTTP(kind, RingDepth)
		if err != nil {
			return nil, fmt.Errorf("%v ring-on: %w", kind, err)
		}
		e := RingEntry{
			App:              "fasthttp /stream",
			Backend:          kind.String(),
			Depth:            RingDepth,
			Requests:         RingRequests,
			UnbatchedReqsSec: off,
			BatchedReqsSec:   on,
			Batches:          counters.RingBatches,
			Entries:          counters.RingEntries,
			Syscalls:         counters.Syscalls,
		}
		if off > 0 {
			e.Speedup = on / off
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
