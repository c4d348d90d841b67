// Package obs is the observability layer beneath the Enclosure runtime:
// a low-overhead structured event tracer threaded through LitterBox's
// six API calls (Init, Prolog, Epilog, FilterSyscall, Transfer, Execute)
// plus faults, the simulated kernel's syscall dispatch, and the
// multi-core engine's workers. Events are keyed by backend so MPK
// PKRU-write switches and VTX VM-exit switches are attributed
// separately, and by worker so the engine's per-core streams are told
// apart in one snapshot.
//
// Tracing is host-side: recording an event never advances the virtual
// clock, so the simulated program's measured cost is identical with and
// without a tracer attached. The package depends only on the standard
// library — every layer of the runtime, from the kernel up, can emit
// into it without import cycles.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Event kinds, one per traced runtime operation. The first six mirror
// the LitterBox API calls of the paper's §4.2; "fault" records a
// protection violation that aborted a domain, and "violation" records a
// would-be fault that audit mode allowed through instead.
const (
	KindInit      = "init"
	KindProlog    = "prolog"
	KindEpilog    = "epilog"
	KindExecute   = "execute"
	KindSyscall   = "syscall"
	KindTransfer  = "transfer"
	KindFault     = "fault"
	KindViolation = "violation"
	// Batched syscall ring: one submit event when a batch enters the
	// drain, one complete event when its completions post.
	KindBatchSubmit   = "batch-submit"
	KindBatchComplete = "batch-complete"
)

// Cluster event kinds: the control-plane operations of a multi-node
// engine cluster. These are host-side coordination events — routing a
// request, migrating an environment, a node joining or leaving the hash
// ring — so they carry no virtual cost; Worker holds the node ID.
const (
	KindRoute   = "route"
	KindMigrate = "migrate"
	KindJoin    = "join"
	KindLeave   = "leave"
)

// Filter verdicts stamped on syscall and violation events.
const (
	VerdictAllow = "allow"
	VerdictDeny  = "deny"
	VerdictAudit = "audit"
)

// Event is one recorded enforcement event, stamped with virtual time.
// Zero-valued fields are omitted from the JSON-lines sink, so a minimal
// event costs one short line.
type Event struct {
	At      int64  `json:"at_ns"`             // virtual nanoseconds on the emitting CPU's clock
	Kind    string `json:"kind"`              // one of the Kind* constants
	Backend string `json:"backend,omitempty"` // enforcement backend ("mpk", "vtx", ...)
	Worker  string `json:"worker,omitempty"`  // engine worker ("cpu0"), empty on the main core
	Env     string `json:"env,omitempty"`     // execution environment in force
	Encl    string `json:"encl,omitempty"`    // enclosure name (prolog/epilog)
	Pkg     string `json:"pkg,omitempty"`     // caller package (syscall) or target arena (transfer)
	Sys     string `json:"sys,omitempty"`     // syscall name
	Sysno   uint32 `json:"sysno,omitempty"`   // syscall number
	Verdict string `json:"verdict,omitempty"` // filter verdict (allow/deny/audit)
	Cost    int64  `json:"cost_ns,omitempty"` // virtual nanoseconds the operation charged
	Detail  string `json:"detail,omitempty"`
}

// String renders the event as one human-readable trace line.
func (e Event) String() string {
	env := e.Env
	if env == "" {
		env = "-"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%10dns %-9s %-14s", e.At, e.Kind, env)
	if e.Sys != "" {
		fmt.Fprintf(&sb, " %s", e.Sys)
		if e.Verdict != "" {
			fmt.Fprintf(&sb, "->%s", e.Verdict)
		}
	}
	if e.Detail != "" {
		fmt.Fprintf(&sb, " %s", e.Detail)
	}
	if e.Pkg != "" {
		fmt.Fprintf(&sb, " [%s]", e.Pkg)
	}
	if e.Worker != "" {
		fmt.Fprintf(&sb, " @%s", e.Worker)
	}
	return sb.String()
}

// kindKey aggregates per (kind, backend) — the §6 cost-model axes.
type kindKey struct {
	kind    string
	backend string
}

type kindAgg struct {
	count int64
	cost  int64
}

type sysAgg struct {
	count   int64
	denied  int64
	audited int64
}

// Trace collects events: the last capacity of them verbatim, running
// aggregates for all of them, and optionally a JSON-lines copy of every
// event to a sink. One Trace serves a whole program — engine workers
// share it, their streams distinguished by Event.Worker — and warm
// instances share their template's; the mutex serialises them and the
// host-side control plane.
type Trace struct {
	mu      sync.Mutex
	ring    []Event
	next    int
	total   int64
	kinds   map[kindKey]*kindAgg
	sys     map[string]*sysAgg
	workers map[string]int64
	jsonl   io.Writer
	jerr    error
}

// New returns a trace keeping the last capacity events verbatim
// (default 256 when capacity <= 0) plus aggregates covering every event
// ever emitted.
func New(capacity int) *Trace {
	if capacity <= 0 {
		capacity = 256
	}
	return &Trace{
		ring:    make([]Event, capacity),
		kinds:   make(map[kindKey]*kindAgg),
		sys:     make(map[string]*sysAgg),
		workers: make(map[string]int64),
	}
}

// SetJSONL streams every subsequent event to w as one JSON object per
// line. The first write error stops the stream (and is reported by
// SinkErr); tracing itself continues.
func (t *Trace) SetJSONL(w io.Writer) {
	t.mu.Lock()
	t.jsonl = w
	t.jerr = nil
	t.mu.Unlock()
}

// SinkErr reports the first JSON-lines sink write error, if any.
func (t *Trace) SinkErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jerr
}

// Emit records one event.
func (t *Trace) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring[t.next] = e
	t.next = (t.next + 1) % len(t.ring)
	t.total++
	k := kindKey{e.Kind, e.Backend}
	ka := t.kinds[k]
	if ka == nil {
		ka = &kindAgg{}
		t.kinds[k] = ka
	}
	ka.count++
	ka.cost += e.Cost
	if e.Sys != "" {
		sa := t.sys[e.Sys]
		if sa == nil {
			sa = &sysAgg{}
			t.sys[e.Sys] = sa
		}
		sa.count++
		switch e.Verdict {
		case VerdictDeny:
			sa.denied++
		case VerdictAudit:
			sa.audited++
		}
	}
	if e.Worker != "" {
		t.workers[e.Worker]++
	}
	if t.jsonl != nil && t.jerr == nil {
		blob, err := json.Marshal(e)
		if err == nil {
			blob = append(blob, '\n')
			_, err = t.jsonl.Write(blob)
		}
		t.jerr = err
	}
}

// retained is how many events the ring holds; t.mu must be held.
func (t *Trace) retained() int {
	return int(min(t.total, int64(len(t.ring))))
}

// Events returns the retained events — the last capacity emitted —
// oldest first, in emission order.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.retained()
	if n < len(t.ring) {
		return append([]Event(nil), t.ring[:n]...)
	}
	return append(append([]Event(nil), t.ring[t.next:]...), t.ring[:t.next]...)
}

// String renders the retained events, one line each.
func (t *Trace) String() string {
	var sb strings.Builder
	for _, e := range t.Events() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// KindStat is one (kind, backend) histogram bucket.
type KindStat struct {
	Kind    string `json:"kind"`
	Backend string `json:"backend,omitempty"`
	Count   int64  `json:"count"`
	CostNs  int64  `json:"virtual_ns"`
}

// SysStat is one syscall's aggregate.
type SysStat struct {
	Sys     string `json:"sys"`
	Count   int64  `json:"count"`
	Denied  int64  `json:"denied,omitempty"`
	Audited int64  `json:"audited,omitempty"`
}

// WorkerStat is one engine worker's event count.
type WorkerStat struct {
	Worker string `json:"worker"`
	Count  int64  `json:"count"`
}

// Snapshot is the aggregate view of a trace at one instant. Its JSON
// encoding is deterministic — slices sorted by key, never maps — so
// downstream tooling can golden-test the schema.
type Snapshot struct {
	// Events counts every event ever emitted; Dropped is how many of
	// them the verbatim ring has already overwritten.
	Events   int64        `json:"events"`
	Dropped  int64        `json:"dropped"`
	Kinds    []KindStat   `json:"kinds"`
	Syscalls []SysStat    `json:"syscalls"`
	Workers  []WorkerStat `json:"workers"`
}

// Snapshot returns the current aggregates.
func (t *Trace) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Snapshot{Events: t.total, Dropped: t.total - int64(t.retained())}
	for k, a := range t.kinds {
		s.Kinds = append(s.Kinds, KindStat{Kind: k.kind, Backend: k.backend, Count: a.count, CostNs: a.cost})
	}
	sort.Slice(s.Kinds, func(i, j int) bool {
		if s.Kinds[i].Kind != s.Kinds[j].Kind {
			return s.Kinds[i].Kind < s.Kinds[j].Kind
		}
		return s.Kinds[i].Backend < s.Kinds[j].Backend
	})
	for name, a := range t.sys {
		s.Syscalls = append(s.Syscalls, SysStat{Sys: name, Count: a.count, Denied: a.denied, Audited: a.audited})
	}
	sort.Slice(s.Syscalls, func(i, j int) bool { return s.Syscalls[i].Sys < s.Syscalls[j].Sys })
	for name, n := range t.workers {
		s.Workers = append(s.Workers, WorkerStat{Worker: name, Count: n})
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].Worker < s.Workers[j].Worker })
	return s
}

// Histogram renders the per-(kind, backend) aggregates as an aligned
// table — the §6 cost-model attribution of where enforcement time went.
func (s Snapshot) Histogram() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-9s %10s %14s\n", "kind", "backend", "count", "virtual_ns")
	for _, k := range s.Kinds {
		backend := k.Backend
		if backend == "" {
			backend = "-"
		}
		fmt.Fprintf(&sb, "%-10s %-9s %10d %14d\n", k.Kind, backend, k.Count, k.CostNs)
	}
	return sb.String()
}

// Summary renders a short human-readable account of the snapshot.
func (s Snapshot) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d events (%d beyond the retained window)\n", s.Events, s.Dropped)
	var denied, audited int64
	for _, sy := range s.Syscalls {
		denied += sy.Denied
		audited += sy.Audited
	}
	if len(s.Syscalls) > 0 {
		fmt.Fprintf(&sb, "syscalls: %d distinct, %d denied, %d audited\n", len(s.Syscalls), denied, audited)
	}
	if len(s.Workers) > 0 {
		parts := make([]string, len(s.Workers))
		for i, w := range s.Workers {
			parts[i] = fmt.Sprintf("%s:%d", w.Worker, w.Count)
		}
		fmt.Fprintf(&sb, "workers: %s\n", strings.Join(parts, " "))
	}
	sb.WriteString(s.Histogram())
	return sb.String()
}
