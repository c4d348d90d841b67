package simnet

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestDialAcceptRoundTrip(t *testing.T) {
	n := New()
	ln, err := n.Listen(Addr{Host: HostIP(10, 0, 0, 1), Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		buf := make([]byte, 16)
		m, _ := conn.Read(buf)
		_, err = conn.Write(bytes.ToUpper(buf[:m]))
		conn.Close()
		done <- err
	}()
	c, err := n.Dial(HostIP(10, 0, 0, 99), Addr{Host: HostIP(10, 0, 0, 1), Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	m, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:m]) != "PING" {
		t.Fatalf("echo = %q", buf[:m])
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c.local.Host != HostIP(10, 0, 0, 99) || c.remote.Port != 80 {
		t.Fatalf("addrs: %v -> %v", c.local, c.remote)
	}
}

func TestDialRefusedAndAddrInUse(t *testing.T) {
	n := New()
	if _, err := n.Dial(1, Addr{Host: 2, Port: 9}); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("refused: %v", err)
	}
	a := Addr{Host: 1, Port: 80}
	if _, err := n.Listen(a); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen(a); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("in use: %v", err)
	}
}

func TestEphemeralPorts(t *testing.T) {
	n := New()
	a, _ := n.Listen(Addr{Host: 1})
	b, _ := n.Listen(Addr{Host: 1})
	if a.Addr().Port == 0 || a.Addr().Port == b.Addr().Port {
		t.Fatalf("ephemeral ports %d, %d", a.Addr().Port, b.Addr().Port)
	}
}

func TestListenerCloseReleasesAddr(t *testing.T) {
	n := New()
	a := Addr{Host: 1, Port: 80}
	ln, _ := n.Listen(a)
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
	if _, err := n.Listen(a); err != nil {
		t.Fatalf("address not released: %v", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, ErrClosed) {
		t.Fatalf("accept on closed: %v", err)
	}
}

// AwaitAccept returns only once the server is parked in Accept with
// nothing queued, and fails on an unbound or closing address.
func TestAwaitAccept(t *testing.T) {
	n := New()
	a := Addr{Host: 1, Port: 80}
	if err := n.AwaitAccept(a); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("unbound: %v", err)
	}
	ln, _ := n.Listen(a)
	served := make(chan error, 1)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				served <- err
				return
			}
			c.Close()
		}
	}()
	for i := 0; i < 50; i++ {
		c, err := n.Dial(2, a)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		if err := n.AwaitAccept(a); err != nil {
			t.Fatal(err)
		}
		ln.mu.Lock()
		queued, waiting := len(ln.queue), ln.waiting
		ln.mu.Unlock()
		if queued != 0 || waiting != 1 {
			t.Fatalf("round %d: returned with %d queued, %d accepters parked", i, queued, waiting)
		}
	}
	_ = ln.Close()
	if err := <-served; !errors.Is(err, ErrClosed) {
		t.Fatalf("accept after close: %v", err)
	}

	// A client waiting on a listener nobody accepts from is released
	// by its close.
	b := Addr{Host: 1, Port: 81}
	idle, _ := n.Listen(b)
	waited := make(chan error, 1)
	go func() { waited <- n.AwaitAccept(b) }()
	_ = idle.Close()
	if err := <-waited; !errors.Is(err, ErrClosed) && !errors.Is(err, ErrConnRefused) {
		t.Fatalf("await on closed listener: %v", err)
	}
}

// TestBacklogDrainedAfterClose: connections accepted into the backlog
// before Close must still be deliverable (regression for a race where
// queued connections were dropped).
func TestBacklogDrainedAfterClose(t *testing.T) {
	n := New()
	ln, _ := n.Listen(Addr{Host: 1, Port: 80})
	c, err := n.Dial(2, Addr{Host: 1, Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _ = c.Write([]byte("queued"))
		c.Close()
	}()
	_ = ln.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatalf("backlog dropped: %v", err)
	}
	buf := make([]byte, 16)
	m, _ := conn.Read(buf)
	if string(buf[:m]) != "queued" {
		t.Fatalf("got %q", buf[:m])
	}
	// Once drained, Accept reports closed.
	if _, err := ln.Accept(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain accept: %v", err)
	}
}

func TestEOFAfterClose(t *testing.T) {
	n := New()
	ln, _ := n.Listen(Addr{Host: 1, Port: 80})
	go func() {
		conn, _ := ln.Accept()
		_, _ = conn.Write([]byte("bye"))
		conn.Close()
	}()
	c, _ := n.Dial(2, Addr{Host: 1, Port: 80})
	buf := make([]byte, 8)
	var got []byte
	for {
		m, err := c.Read(buf)
		got = append(got, buf[:m]...)
		if err != nil {
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("read error: %v", err)
			}
			break
		}
	}
	if string(got) != "bye" {
		t.Fatalf("drained %q", got)
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
}

// TestStreamIntegrityProperty: arbitrary payloads cross the pipe intact
// and in order, including ones larger than the internal buffer.
func TestStreamIntegrityProperty(t *testing.T) {
	n := New()
	ln, _ := n.Listen(Addr{Host: 1, Port: 80})
	f := func(chunks [][]byte) bool {
		var want []byte
		for _, c := range chunks {
			want = append(want, c...)
		}
		c, err := n.Dial(2, Addr{Host: 1, Port: 80})
		if err != nil {
			return false
		}
		server, err := ln.Accept()
		if err != nil {
			return false
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, chunk := range chunks {
				if _, err := c.Write(chunk); err != nil {
					return
				}
			}
			c.Close()
		}()
		var got []byte
		buf := make([]byte, 8192)
		for {
			m, err := server.Read(buf)
			got = append(got, buf[:m]...)
			if err != nil {
				break
			}
		}
		wg.Wait()
		server.Close()
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeTransferBeyondBuffer(t *testing.T) {
	n := New()
	ln, _ := n.Listen(Addr{Host: 1, Port: 80})
	payload := make([]byte, streamBufSize*3+17)
	for i := range payload {
		payload[i] = byte(i)
	}
	go func() {
		conn, _ := ln.Accept()
		buf := make([]byte, 64*1024)
		var got []byte
		for len(got) < len(payload) {
			m, err := conn.Read(buf)
			got = append(got, buf[:m]...)
			if err != nil {
				break
			}
		}
		if !bytes.Equal(got, payload) {
			panic("large transfer corrupted")
		}
		conn.Close()
	}()
	c, _ := n.Dial(2, Addr{Host: 1, Port: 80})
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestAddrString(t *testing.T) {
	a := Addr{Host: HostIP(10, 0, 0, 2), Port: 5432}
	if a.String() != "10.0.0.2:5432" {
		t.Fatalf("Addr.String = %q", a.String())
	}
}

func TestListenShardsRoundRobin(t *testing.T) {
	n := New()
	addr := Addr{Host: 1, Port: 80}
	shards, err := n.ListenShards(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 4 {
		t.Fatalf("got %d shards", len(shards))
	}
	// The address is taken for both plain Listen and another group.
	if _, err := n.Listen(addr); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("Listen on sharded addr: %v", err)
	}
	if _, err := n.ListenShards(addr, 2); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("ListenShards on sharded addr: %v", err)
	}
	// 8 dials spread 2 per shard.
	for i := 0; i < 8; i++ {
		c, err := n.Dial(2, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	for i, s := range shards {
		s.mu.Lock()
		depth := len(s.queue)
		s.mu.Unlock()
		if depth != 2 {
			t.Fatalf("shard %d queue depth %d, want 2", i, depth)
		}
	}
}

func TestListenShardsCloseSkipsShard(t *testing.T) {
	n := New()
	addr := Addr{Host: 1, Port: 80}
	shards, err := n.ListenShards(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := shards[0].Close(); err != nil {
		t.Fatal(err)
	}
	// Dials keep succeeding, all landing on the surviving shard.
	for i := 0; i < 3; i++ {
		if _, err := n.Dial(2, addr); err != nil {
			t.Fatalf("dial %d after shard close: %v", i, err)
		}
	}
	shards[1].mu.Lock()
	depth := len(shards[1].queue)
	shards[1].mu.Unlock()
	if depth != 3 {
		t.Fatalf("surviving shard depth %d, want 3", depth)
	}
	// Last shard closing releases the address.
	if err := shards[1].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Dial(2, addr); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("dial after all shards closed: %v", err)
	}
	if _, err := n.Listen(addr); err != nil {
		t.Fatalf("address not released: %v", err)
	}
}
