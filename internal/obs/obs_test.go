package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRingWrapKeepsCapacity pins the retention contract: exactly the
// last capacity events are retained, oldest first, and every older one
// counts as dropped.
func TestRingWrapKeepsCapacity(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{At: int64(i), Kind: KindSyscall, Sys: "read"})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want capacity 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(6 + i); e.At != want {
			t.Errorf("event %d: At = %d, want %d (last capacity retained, oldest first)", i, e.At, want)
		}
	}
	if s := tr.Snapshot(); s.Events != 10 || s.Dropped != 10-4 {
		t.Errorf("Events/Dropped = %d/%d, want 10/6", s.Events, s.Dropped)
	}
}

func TestAggregatesCoverDroppedEvents(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Kind: KindProlog, Backend: "mpk", Cost: 10})
	}
	tr.Emit(Event{Kind: KindSyscall, Backend: "mpk", Sys: "connect", Verdict: VerdictDeny})
	tr.Emit(Event{Kind: KindSyscall, Backend: "mpk", Sys: "connect", Verdict: VerdictAudit, Worker: "cpu1"})
	s := tr.Snapshot()
	var prolog *KindStat
	for i := range s.Kinds {
		if s.Kinds[i].Kind == KindProlog {
			prolog = &s.Kinds[i]
		}
	}
	if prolog == nil || prolog.Count != 5 || prolog.CostNs != 50 {
		t.Fatalf("prolog bucket = %+v, want count 5 cost 50", prolog)
	}
	if len(s.Syscalls) != 1 || s.Syscalls[0].Sys != "connect" ||
		s.Syscalls[0].Count != 2 || s.Syscalls[0].Denied != 1 || s.Syscalls[0].Audited != 1 {
		t.Fatalf("syscall aggregate = %+v", s.Syscalls)
	}
	if len(s.Workers) != 1 || s.Workers[0].Worker != "cpu1" || s.Workers[0].Count != 1 {
		t.Fatalf("worker aggregate = %+v", s.Workers)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	tr := New(8)
	tr.SetJSONL(&buf)
	tr.Emit(Event{At: 7, Kind: KindFault, Env: "worker", Detail: "write 0x40"})
	tr.Emit(Event{At: 9, Kind: KindSyscall, Sys: "read", Sysno: 1, Verdict: VerdictAllow})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink wrote %d lines, want 2", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatalf("line 2 is not JSON: %v", err)
	}
	if e.At != 9 || e.Kind != KindSyscall || e.Sys != "read" || e.Sysno != 1 || e.Verdict != VerdictAllow {
		t.Errorf("round-tripped event = %+v", e)
	}
	if strings.Contains(lines[0], "sysno") {
		t.Errorf("zero-valued fields should be omitted: %s", lines[0])
	}
	if err := tr.SinkErr(); err != nil {
		t.Errorf("SinkErr = %v", err)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("disk full")
}

func TestJSONLSinkErrorStopsStream(t *testing.T) {
	w := &failWriter{}
	tr := New(8)
	tr.SetJSONL(w)
	tr.Emit(Event{Kind: KindInit})
	tr.Emit(Event{Kind: KindInit})
	if w.n != 1 {
		t.Errorf("sink written %d times after error, want 1", w.n)
	}
	if tr.SinkErr() == nil {
		t.Error("SinkErr = nil after write failure")
	}
	if s := tr.Snapshot(); s.Events != 2 {
		t.Errorf("tracing stopped with the sink: %d events", s.Events)
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 1234, Kind: KindSyscall, Env: "http-server", Sys: "connect", Verdict: VerdictDeny, Pkg: "lib/pq", Worker: "cpu2"}
	s := e.String()
	for _, want := range []string{"1234ns", "syscall", "http-server", "connect->deny", "[lib/pq]", "@cpu2"} {
		if !strings.Contains(s, want) {
			t.Errorf("Event.String() = %q, missing %q", s, want)
		}
	}
}

// fixedSnapshot builds a deterministic snapshot exercising every field.
// Capacity 8 exceeds the event count, so Dropped is 0.
func fixedSnapshot() Snapshot {
	tr := New(8)
	tr.Emit(Event{At: 100, Kind: KindInit, Backend: "mpk", Detail: "2 environments, 3 meta-packages"})
	tr.Emit(Event{At: 250, Kind: KindProlog, Backend: "mpk", Env: "worker", Encl: "demo", Cost: 139})
	tr.Emit(Event{At: 400, Kind: KindSyscall, Backend: "mpk", Env: "worker", Pkg: "lib", Sys: "read", Sysno: 1, Verdict: VerdictAllow, Cost: 562, Worker: "cpu0"})
	tr.Emit(Event{At: 500, Kind: KindSyscall, Backend: "mpk", Env: "worker", Pkg: "lib", Sys: "connect", Sysno: 11, Verdict: VerdictDeny, Worker: "cpu0"})
	tr.Emit(Event{At: 510, Kind: KindFault, Backend: "mpk", Env: "worker", Detail: "syscall connect"})
	tr.Emit(Event{At: 600, Kind: KindEpilog, Backend: "mpk", Env: "worker", Encl: "demo", Cost: 139, Worker: "cpu1"})
	return tr.Snapshot()
}

// TestSnapshotGolden pins the snapshot's JSON schema: field names,
// ordering, and omission rules. Downstream consumers (the CI smoke
// check, dashboards over `enclosebench -json`) parse this shape; a
// diff here means their contract changed. Regenerate deliberately with
// `go test ./internal/obs -run Golden -update`.
func TestSnapshotGolden(t *testing.T) {
	blob, err := json.MarshalIndent(fixedSnapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	golden := filepath.Join("testdata", "snapshot.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(blob, want) {
		t.Errorf("snapshot JSON schema drifted from %s:\n got: %s\nwant: %s", golden, blob, want)
	}
}

func TestSnapshotDeterminism(t *testing.T) {
	a, _ := json.Marshal(fixedSnapshot())
	b, _ := json.Marshal(fixedSnapshot())
	if !bytes.Equal(a, b) {
		t.Errorf("identical traces marshal differently:\n%s\n%s", a, b)
	}
}

func TestAuditRecordAndDerive(t *testing.T) {
	a := NewAudit()
	a.RecordAccess("worker", "secrets", NeedRead)
	a.RecordAccess("worker", "secrets", NeedWrite) // upgrades R -> RW
	a.RecordAccess("worker", "secrets", NeedRead)  // never downgrades
	a.RecordSys("worker", "net", true)
	a.RecordSys("worker", "io", false)
	a.RecordSys("worker", "none", true) // unknown category: ignored
	a.RecordConnect("worker", 10<<24|2)
	a.RecordConnect("worker", 10<<24|2) // duplicates collapse

	if got := a.Derive("worker"); got != "secrets:RW; sys:net,io; connect:10.0.0.2" {
		t.Errorf("Derive = %q", got)
	}
	// Every denied access counts (all three RecordAccess calls) plus
	// the one denied syscall category; allowed and skipped ones don't.
	if v := a.Violations(); v != 4 {
		t.Errorf("Violations = %d", v)
	}
	if envs := a.Envs(); len(envs) != 1 || envs[0] != "worker" {
		t.Errorf("Envs = %v", envs)
	}
}

func TestAuditDeriveNoNet(t *testing.T) {
	a := NewAudit()
	a.RecordSys("quiet", "file", true)
	if got := a.Derive("quiet"); got != "sys:file" {
		t.Errorf("Derive = %q (no connect segment without net)", got)
	}
	if got := a.Derive("absent"); got != "sys:none" {
		t.Errorf("Derive(unknown env) = %q, want the paper's default", got)
	}
}

func TestAuditConnectNoneWhenNetButNoDials(t *testing.T) {
	a := NewAudit()
	a.RecordSys("srv", "net", true)
	if got := a.Derive("srv"); got != "sys:net; connect:none" {
		t.Errorf("Derive = %q", got)
	}
}

func TestFormatHost(t *testing.T) {
	if got := FormatHost(10<<24 | 1); got != "10.0.0.1" {
		t.Errorf("FormatHost = %q", got)
	}
}

func TestSummaryAndHistogram(t *testing.T) {
	s := fixedSnapshot()
	sum := s.Summary()
	for _, want := range []string{"6 events", "0 beyond the retained window", "denied", "cpu0:2"} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary missing %q:\n%s", want, sum)
		}
	}
	h := s.Histogram()
	if !strings.Contains(h, "prolog") || !strings.Contains(h, "mpk") {
		t.Errorf("Histogram missing buckets:\n%s", h)
	}
	_ = fmt.Sprintf("%v", s) // snapshots are plain data
}

// TestConcurrentEmitters pins the retention contract with emitters on
// separate goroutines (the cluster's host-side control plane, warm
// instances sharing a template's tracer): the counts are exact and the
// ring holds exactly its capacity, under -race too.
func TestConcurrentEmitters(t *testing.T) {
	const workers, perWorker, capacity = 8, 1000, 64
	tr := New(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Emit(Event{At: int64(i), Kind: KindSyscall, Backend: "mpk", Sys: "read", Worker: name})
			}
		}(fmt.Sprintf("cpu%d", w))
	}
	wg.Wait()
	s := tr.Snapshot()
	if s.Events != workers*perWorker || s.Dropped != workers*perWorker-capacity {
		t.Errorf("Events/Dropped = %d/%d, want %d/%d", s.Events, s.Dropped, workers*perWorker, workers*perWorker-capacity)
	}
	if n := len(tr.Events()); n != capacity {
		t.Errorf("retained %d events, want %d", n, capacity)
	}
	if len(s.Workers) != workers {
		t.Fatalf("worker aggregate = %+v, want %d workers", s.Workers, workers)
	}
	for _, w := range s.Workers {
		if w.Count != perWorker {
			t.Errorf("worker %s counted %d events, want %d", w.Worker, w.Count, perWorker)
		}
	}
}
