package engine

import (
	"sync"
	"testing"
	"time"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// TestServeShedCountsOnlyBackpressure is the shed-accounting regression
// test: Shed() must count only ErrBackpressure rejections — connections
// dropped because the engine had already closed are shutdown artifacts
// and land in ClosedDrops. Before the fix, Shed() incremented on any
// Submit error, so every shutdown inflated the shed rate the latency
// SLOs report.
func TestServeShedCountsOnlyBackpressure(t *testing.T) {
	prog := buildProg(t, core.Baseline, nil)
	e := New(prog, Opts{Workers: 1, QueueDepth: 4})

	const port = 9002
	srv, err := e.Serve(ServeOpts{
		Port: port,
		Conn: func(t *core.Task, fd int) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Close the engine under the still-listening server: every accept
	// from here on hits ErrClosed.
	e.Close()

	client := simnet.HostIP(10, 0, 0, 98)
	addr := simnet.Addr{Host: core.DefaultHostIP, Port: port}
	conn, err := prog.Net().Dial(client, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.closedDrops.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("closed-engine drop never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()

	if got := srv.Shed(); got != 0 {
		t.Fatalf("Shed = %d after an ErrClosed drop, want 0 (closed-engine drops are not sheds)", got)
	}
	if got := srv.closedDrops.Load(); got != 1 {
		t.Fatalf("ClosedDrops = %d, want 1", got)
	}
}

// TestServeBackpressureDoesNotCountAsClosedDrop is the inverse
// direction: genuine backpressure sheds must not leak into ClosedDrops.
func TestServeBackpressureDoesNotCountAsClosedDrop(t *testing.T) {
	prog := buildProg(t, core.Baseline, nil)
	e := New(prog, Opts{Workers: 1, QueueDepth: 1})

	gate := make(chan struct{})
	started := make(chan struct{})
	var startOnce sync.Once
	const port = 9003
	srv, err := e.Serve(ServeOpts{
		Port: port,
		Conn: func(t *core.Task, fd int) error {
			startOnce.Do(func() { close(started) })
			<-gate
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	client := simnet.HostIP(10, 0, 0, 98)
	addr := simnet.Addr{Host: core.DefaultHostIP, Port: port}
	var conns []*simnet.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < 8; i++ {
		c, err := prog.Net().Dial(client, addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	<-started
	deadline := time.Now().Add(5 * time.Second)
	for srv.Shed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no connection shed under backpressure")
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.closedDrops.Load(); got != 0 {
		t.Fatalf("ClosedDrops = %d during pure backpressure, want 0", got)
	}
	close(gate)
	srv.Close()
	e.Close()
}
