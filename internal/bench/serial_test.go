package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
)

// serialTableLines renders every virtual-time table result bit for bit:
// the twelve Table 1 cells, Table 2's Bild, HTTP and FastHTTP rows and
// Figure 5's wiki on every projection backend (throughput bits plus the
// full counter snapshot), every ring entry, and the wiki audit's derived
// policies and violation count.
func serialTableLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, m := range []struct {
		op string
		fn func(core.BackendKind, int) (MicroResult, error)
	}{{"call", MicroCall}, {"transfer", MicroTransfer}, {"syscall", MicroSyscall}} {
		for _, kind := range ProjectionBackends {
			r, err := m.fn(kind, table1Iters)
			if err != nil {
				t.Fatalf("table1 %s/%v: %v", m.op, kind, err)
			}
			lines = append(lines, fmt.Sprintf("table1 %s %v ns=%#x", m.op, kind, math.Float64bits(r.NsPerOp)))
		}
	}
	for _, run := range []struct {
		name string
		fn   func(core.BackendKind) (MacroResult, error)
	}{{"Bild", RunBild}, {"HTTP", RunHTTP}, {"FastHTTP", RunFastHTTP}, {"wiki", RunWiki}} {
		for _, kind := range ProjectionBackends {
			r, err := run.fn(kind)
			if err != nil {
				t.Fatalf("%s/%v: %v", run.name, kind, err)
			}
			lines = append(lines, fmt.Sprintf("%s %v raw=%#x %s",
				run.name, kind, math.Float64bits(r.Raw), r.Counters))
		}
	}
	ring, err := runRing()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ring {
		lines = append(lines, fmt.Sprintf("ring %s depth=%d reqs=%d off=%#x on=%#x speedup=%#x batches=%d entries=%d syscalls=%d",
			e.Backend, e.Depth, e.Requests, math.Float64bits(e.UnbatchedReqsSec), math.Float64bits(e.BatchedReqsSec),
			math.Float64bits(e.Speedup), e.Batches, e.Entries, e.Syscalls))
	}
	for _, kind := range ProjectionBackends {
		o, err := RunWikiAuditTo(kind, nil)
		if err != nil {
			t.Fatalf("audit %v: %v", kind, err)
		}
		encls := make([]string, 0, len(o.Derived))
		for encl := range o.Derived {
			encls = append(encls, encl)
		}
		sort.Strings(encls)
		for _, encl := range encls {
			lines = append(lines, fmt.Sprintf("audit %v %s=%q", kind, encl, o.Derived[encl]))
		}
		lines = append(lines, fmt.Sprintf("audit %v violations=%d rerun_faults=%d", kind, o.Violations, o.ReRunFaults))
	}
	return lines
}

// The tables are virtual-time results: any change to how the
// apps are built or driven must leave every bit of them alone.
func TestSerialTablesBitIdentical(t *testing.T) {
	got := serialTableLines(t)
	want := strings.Split(strings.TrimSpace(serialTablesWant), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

const serialTablesWant = `
table1 call baseline ns=0x4046800000000000
table1 call mpk ns=0x4055400000000000
table1 call vtx ns=0x408d080000000000
table1 call cheri ns=0x4058c00000000000
table1 transfer baseline ns=0x0
table1 transfer mpk ns=0x408f500000000000
table1 transfer vtx ns=0x4063c00000000000
table1 transfer cheri ns=0x4044000000000000
table1 syscall baseline ns=0x4078300000000000
table1 syscall mpk ns=0x4080580000000000
table1 syscall vtx ns=0x40b01e0000000000
table1 syscall cheri ns=0x407bf00000000000
Bild baseline raw=0x402a7d4bf0995aaf switches=3 wrpkru=0 vmexits=0 guestsys=0 syscalls=3 bpf=0 transfers=1537 pkeymprot=0 ptwalks=0 faults=0 ringbatches=0 ringentries=0
Bild mpk raw=0x402d9303e20ccff2 switches=3 wrpkru=3 vmexits=0 guestsys=0 syscalls=3 bpf=0 transfers=1537 pkeymprot=1537 ptwalks=2306 faults=0 ringbatches=0 ringentries=0
Bild vtx raw=0x402afb445ed4a1ad switches=3 wrpkru=0 vmexits=0 guestsys=3 syscalls=3 bpf=0 transfers=1537 pkeymprot=0 ptwalks=2307 faults=0 ringbatches=0 ringentries=0
Bild cheri raw=0x402a9dfb9389b520 switches=3 wrpkru=0 vmexits=0 guestsys=0 syscalls=3 bpf=0 transfers=1537 pkeymprot=0 ptwalks=2307 faults=0 ringbatches=0 ringentries=0
HTTP baseline raw=0x40d0954666fbf85e switches=806 wrpkru=0 vmexits=0 guestsys=0 syscalls=4831 bpf=0 transfers=3 pkeymprot=0 ptwalks=0 faults=0 ringbatches=0 ringentries=0
HTTP mpk raw=0x40d01fdd5f7a5c7c switches=806 wrpkru=806 vmexits=0 guestsys=0 syscalls=4831 bpf=4828 transfers=3 pkeymprot=3 ptwalks=1206 faults=0 ringbatches=0 ringentries=0
HTTP vtx raw=0x40c2aa1ad4fe127e switches=806 wrpkru=0 vmexits=4828 guestsys=5634 syscalls=4831 bpf=0 transfers=3 pkeymprot=0 ptwalks=1207 faults=0 ringbatches=0 ringentries=0
HTTP cheri raw=0x40d05dfdaedfcff2 switches=806 wrpkru=0 vmexits=0 guestsys=0 syscalls=4831 bpf=0 transfers=3 pkeymprot=0 ptwalks=1207 faults=0 ringbatches=0 ringentries=0
FastHTTP baseline raw=0x40d691acd0f710fb switches=4025 wrpkru=0 vmexits=0 guestsys=0 syscalls=4027 bpf=0 transfers=3 pkeymprot=0 ptwalks=0 faults=0 ringbatches=0 ringentries=0
FastHTTP mpk raw=0x40d5c83fe83efe5d switches=4025 wrpkru=4025 vmexits=0 guestsys=0 syscalls=4027 bpf=4024 transfers=3 pkeymprot=3 ptwalks=1206 faults=0 ringbatches=0 ringentries=0
FastHTTP vtx raw=0x40c6f49d566aa076 switches=4025 wrpkru=0 vmexits=4024 guestsys=8049 syscalls=4027 bpf=0 transfers=3 pkeymprot=0 ptwalks=1207 faults=0 ringbatches=0 ringentries=0
FastHTTP cheri raw=0x40d61f697ee52d96 switches=4025 wrpkru=0 vmexits=0 guestsys=0 syscalls=4027 bpf=0 transfers=3 pkeymprot=0 ptwalks=1207 faults=0 ringbatches=0 ringentries=0
wiki baseline raw=0x40d1ffb34cafb0a9 switches=2422 wrpkru=0 vmexits=0 guestsys=0 syscalls=3330 bpf=0 transfers=4 pkeymprot=0 ptwalks=0 faults=0 ringbatches=0 ringentries=0
wiki mpk raw=0x40d176d510f7705b switches=2422 wrpkru=2422 vmexits=0 guestsys=0 syscalls=3330 bpf=3326 transfers=4 pkeymprot=4 ptwalks=1508 faults=0 ringbatches=0 ringentries=0
wiki vtx raw=0x40c3be3b5e58ee63 switches=2422 wrpkru=0 vmexits=3326 guestsys=5748 syscalls=3330 bpf=0 transfers=4 pkeymprot=0 ptwalks=1510 faults=0 ringbatches=0 ringentries=0
wiki cheri raw=0x40d1b6140068985c switches=2422 wrpkru=0 vmexits=0 guestsys=0 syscalls=3330 bpf=0 transfers=4 pkeymprot=0 ptwalks=1510 faults=0 ringbatches=0 ringentries=0
ring baseline depth=32 reqs=150 off=0x40be8a8c1284b0cc on=0x40dccf806489ffe1 speedup=0x400e2fcad48ed549 batches=1504 entries=39166 syscalls=39477
ring mpk depth=32 reqs=150 off=0x40b7d95770b1d404 on=0x40cc3361f1f8004b speedup=0x4002eb658d847806 batches=1504 entries=39166 syscalls=39477
ring vtx depth=32 reqs=150 off=0x408c0de5582fd141 on=0x40c8cbeaa73329e2 speedup=0x402c48b9987a0c8d batches=1504 entries=39166 syscalls=39477
ring cheri depth=32 reqs=150 off=0x40bb27ed6b852a63 on=0x40d3bab588dc08d0 speedup=0x40073fa54e1b3ee6 batches=1504 entries=39166 syscalls=39477
audit baseline db-proxy="sys:net; connect:10.0.0.2"
audit baseline http-server="sys:net; connect:none"
audit baseline violations=0 rerun_faults=0
audit mpk db-proxy="sys:net; connect:10.0.0.2"
audit mpk http-server="sys:net; connect:none"
audit mpk violations=292 rerun_faults=0
audit vtx db-proxy="sys:net; connect:10.0.0.2"
audit vtx http-server="sys:net; connect:none"
audit vtx violations=292 rerun_faults=0
audit cheri db-proxy="sys:net; connect:10.0.0.2"
audit cheri http-server="sys:net; connect:none"
audit cheri violations=292 rerun_faults=0
`
