package fasthttp_test

import (
	"bytes"
	"testing"

	"github.com/litterbox-project/enclosure/internal/apps/fasthttp"
	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// pageRequestAllocs bounds the heap allocations of one 13 KB page
// request served through a manual-mode engine on MPK with a depth-32
// ring: connection pair, request, job, admission, the enclosed
// handler and the response read into a reused client buffer. It reads
// 32 on linux/amd64 with Go 1.24, and 36 under the race detector,
// whose sync.Pool drops some pooled stream blocks. Staging each send
// and recv through a fresh kernel buffer made it 48.
const pageRequestAllocs = 40

// TestEnginePageRequestAllocs pins pageRequestAllocs.
func TestEnginePageRequestAllocs(t *testing.T) {
	prog, err := fasthttp.Program(core.MPK, fasthttp.Policy, core.WithSyscallRing(32))
	if err != nil {
		t.Fatal(err)
	}
	serve, stop := fasthttp.NewConnHandler(prog.MustEnclosure("server"), httpserv.StaticPage())
	e := engine.New(prog, engine.Opts{Manual: true, Workers: 1})
	defer func() {
		e.Close()
		if err := stop(); err != nil {
			t.Error(err)
		}
	}()
	req := []byte("GET / HTTP/1.1\r\nHost: pin\r\n\r\n")
	sep := []byte("\r\n\r\n")
	resp := make([]byte, 32*1024)
	request := func() {
		client, server := simnet.Pair()
		defer client.Close()
		if _, err := client.Write(req); err != nil {
			t.Fatal(err)
		}
		if err := e.Submit(engine.JobSpec{Name: "page", Fn: func(t *core.Task) error {
			return serve(t, t.Worker().Proc().InjectConn(server))
		}}); err != nil {
			t.Fatal(err)
		}
		if r, ok := e.StepWorker(0); !ok || r.Err != nil {
			t.Fatalf("step: ran %v, err %v", ok, r.Err)
		}
		n := 0
		for {
			m, err := client.Read(resp[n:])
			n += m
			if err != nil {
				break
			}
		}
		if i := bytes.Index(resp[:n], sep); i < 0 || n-i-len(sep) != httpserv.PageSize13KB {
			t.Fatalf("response of %d bytes is not the 13 KB page", n)
		}
	}
	request() // warm the worker's handler, ring and the block pool
	allocs := testing.AllocsPerRun(50, request)
	t.Logf("%.1f allocs per page request", allocs)
	if allocs > pageRequestAllocs {
		t.Fatalf("one page request allocates %.1f objects, want at most %d", allocs, pageRequestAllocs)
	}
}
