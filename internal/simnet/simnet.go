// Package simnet is the in-memory network behind the simulated kernel's
// socket system calls. It provides loopback-style reliable byte streams:
// listeners with accept queues and connected socket pairs, enough to run
// the paper's HTTP, FastHTTP, wiki/Postgres, and exfiltration-attack
// workloads (§6.2, §6.3, §6.5) without touching a real network.
package simnet

import (
	"errors"
	"fmt"
	"sync"
)

// Addr is a simulated IPv4-style endpoint: a 32-bit host plus a port.
type Addr struct {
	Host uint32
	Port uint16
}

// String renders the address dotted-quad style.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d:%d",
		byte(a.Host>>24), byte(a.Host>>16), byte(a.Host>>8), byte(a.Host), a.Port)
}

// HostIP packs four octets into a host address.
func HostIP(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

// Errors mirror errno conditions the kernel translates.
var (
	ErrAddrInUse   = errors.New("simnet: address already in use")
	ErrConnRefused = errors.New("simnet: connection refused")
	ErrClosed      = errors.New("simnet: use of closed connection")
	ErrNotListener = errors.New("simnet: socket is not listening")
	ErrUnreachable = errors.New("simnet: host unreachable")
	ErrWouldBlock  = errors.New("simnet: operation would block")
)

const (
	streamBufSize   = 256 * 1024
	acceptQueueSize = 1024
)

// IOFlags modifies one I/O operation, mirroring the O_NONBLOCK file
// status flag. Blocking and non-blocking reads and accepts share one
// code path and differ only in this value, so syscall-ring entries and
// direct calls cannot drift apart.
type IOFlags struct {
	// Nonblock makes the operation return ErrWouldBlock instead of
	// waiting, like O_NONBLOCK.
	Nonblock bool
}

// stream is one direction of a connection: a bounded in-memory pipe.
type stream struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool
}

func newStream() *stream {
	s := &stream{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *stream) write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	written := 0
	for written < len(p) {
		for !s.closed && len(s.buf) >= streamBufSize {
			s.cond.Wait()
		}
		if s.closed {
			return written, ErrClosed
		}
		room := streamBufSize - len(s.buf)
		n := len(p) - written
		if n > room {
			n = room
		}
		s.buf = append(s.buf, p[written:written+n]...)
		written += n
		s.cond.Broadcast()
	}
	return written, nil
}

// readFlags is the single read path: blocking by default; under
// Nonblock it returns data if buffered, EOF if closed, ErrWouldBlock
// otherwise.
func (s *stream) readFlags(p []byte, f IOFlags) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.Nonblock {
		if len(s.buf) == 0 && !s.closed {
			return 0, ErrWouldBlock
		}
	} else {
		for len(s.buf) == 0 && !s.closed {
			s.cond.Wait()
		}
	}
	if len(s.buf) == 0 {
		return 0, ErrClosed // EOF after close
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	s.cond.Broadcast()
	return n, nil
}

func (s *stream) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Conn is one endpoint of an established connection.
type Conn struct {
	local, remote Addr
	rd, wr        *stream
	once          sync.Once
}

// ReadFlags receives bytes from the peer under the given flags: it
// blocks until data or EOF, or under Nonblock returns ErrWouldBlock
// instead of waiting.
func (c *Conn) ReadFlags(p []byte, f IOFlags) (int, error) { return c.rd.readFlags(p, f) }

// Read receives bytes from the peer, blocking until data or EOF.
func (c *Conn) Read(p []byte) (int, error) { return c.ReadFlags(p, IOFlags{}) }

// Write sends bytes to the peer.
func (c *Conn) Write(p []byte) (int, error) { return c.wr.write(p) }

// Close shuts down both directions.
func (c *Conn) Close() error {
	c.once.Do(func() {
		c.rd.close()
		c.wr.close()
	})
	return nil
}

// Pair returns two connected endpoints with no listener involved — the
// substrate behind pipe(2) and socketpair(2) in the simulated kernel.
func Pair() (*Conn, *Conn) {
	a2b := newStream()
	b2a := newStream()
	a := &Conn{rd: b2a, wr: a2b}
	b := &Conn{rd: a2b, wr: b2a}
	return a, b
}

// Listener accepts incoming connections on a bound address.
type Listener struct {
	addr   Addr
	net    *Net
	group  *shardGroup // non-nil when part of a ListenShards group
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*Conn
	closed bool
}

// Addr returns the bound address.
func (l *Listener) Addr() Addr { return l.addr }

// AcceptFlags dequeues one connection under the given flags: it blocks
// until one arrives or the listener closes, or under Nonblock returns
// ErrWouldBlock instead of waiting. Connections already queued are
// drained even while closing, as a real TCP stack delivers an
// established backlog.
func (l *Listener) AcceptFlags(f IOFlags) (*Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if f.Nonblock {
		if len(l.queue) == 0 && !l.closed {
			return nil, ErrWouldBlock
		}
	} else {
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
	}
	if len(l.queue) == 0 {
		return nil, ErrClosed
	}
	c := l.queue[0]
	l.queue = l.queue[1:]
	return c, nil
}

// Accept blocks until a connection arrives or the listener closes.
func (l *Listener) Accept() (*Conn, error) { return l.AcceptFlags(IOFlags{}) }

// Close stops the listener and releases its address. For a sharded
// listener only this shard stops; the address stays bound until the
// last shard in the group closes.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()

	l.net.mu.Lock()
	if l.group != nil {
		l.group.open--
		if l.group.open == 0 {
			delete(l.net.shards, l.addr)
		}
	} else {
		delete(l.net.listeners, l.addr)
	}
	l.net.mu.Unlock()
	return nil
}

func (l *Listener) enqueue(c *Conn) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || len(l.queue) >= acceptQueueSize {
		return ErrConnRefused
	}
	l.queue = append(l.queue, c)
	l.cond.Broadcast()
	return nil
}

// shardGroup is a set of listeners sharing one address, the way
// SO_REUSEPORT lets multiple sockets bind the same port and the kernel
// spreads incoming connections across them. Dial round-robins over the
// still-open shards.
type shardGroup struct {
	ls   []*Listener
	next int
	open int
}

// Net is one simulated network namespace.
type Net struct {
	mu        sync.Mutex
	listeners map[Addr]*Listener
	shards    map[Addr]*shardGroup
	nextPort  uint16
}

// New returns an empty network.
func New() *Net {
	return &Net{
		listeners: make(map[Addr]*Listener),
		shards:    make(map[Addr]*shardGroup),
		nextPort:  40000,
	}
}

// Listen binds a listener to addr. A zero port picks an ephemeral one.
func (n *Net) Listen(addr Addr) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr.Port == 0 {
		addr.Port = n.ephemeralLocked()
	}
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	if _, ok := n.shards[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	l := &Listener{addr: addr, net: n}
	l.cond = sync.NewCond(&l.mu)
	n.listeners[addr] = l
	return l, nil
}

// ListenShards binds count listeners to the same address, SO_REUSEPORT
// style: each shard has its own accept queue and Dial spreads incoming
// connections round-robin over the open shards. A multi-core server
// gives each worker its own shard so accepts never contend on one
// queue. A zero port picks an ephemeral one shared by the whole group.
func (n *Net) ListenShards(addr Addr, count int) ([]*Listener, error) {
	if count < 1 {
		return nil, fmt.Errorf("simnet: ListenShards count %d < 1", count)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr.Port == 0 {
		addr.Port = n.ephemeralLocked()
	}
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	if _, ok := n.shards[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	g := &shardGroup{open: count}
	for i := 0; i < count; i++ {
		l := &Listener{addr: addr, net: n, group: g}
		l.cond = sync.NewCond(&l.mu)
		g.ls = append(g.ls, l)
	}
	n.shards[addr] = g
	return append([]*Listener(nil), g.ls...), nil
}

func (n *Net) ephemeralLocked() uint16 {
	for {
		p := n.nextPort
		n.nextPort++
		if n.nextPort == 0 {
			n.nextPort = 40000
		}
		inUse := false
		for a := range n.listeners {
			if a.Port == p {
				inUse = true
				break
			}
		}
		for a := range n.shards {
			if a.Port == p {
				inUse = true
				break
			}
		}
		if !inUse {
			return p
		}
	}
}

// Dial connects from local (host only; port is ephemeral) to remote.
// A sharded address picks a shard round-robin, skipping closed ones.
func (n *Net) Dial(localHost uint32, remote Addr) (*Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[remote]
	if !ok {
		if g, sok := n.shards[remote]; sok {
			for range g.ls {
				cand := g.ls[g.next%len(g.ls)]
				g.next++
				cand.mu.Lock()
				open := !cand.closed
				cand.mu.Unlock()
				if open {
					l, ok = cand, true
					break
				}
			}
		}
	}
	if !ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, remote)
	}
	local := Addr{Host: localHost, Port: n.ephemeralLocked()}
	n.mu.Unlock()

	a2b := newStream()
	b2a := newStream()
	clientSide := &Conn{local: local, remote: remote, rd: b2a, wr: a2b}
	serverSide := &Conn{local: remote, remote: local, rd: a2b, wr: b2a}
	if err := l.enqueue(serverSide); err != nil {
		return nil, err
	}
	return clientSide, nil
}

// ErrNotQuiescent is returned by Clone when the namespace still has live
// listeners or accept shards: streams and accept queues hold goroutine
// rendezvous state that cannot be meaningfully duplicated, so snapshot
// capture requires a quiescent network.
var ErrNotQuiescent = errors.New("simnet: cannot clone a namespace with live listeners")

// Clone returns an independent copy of a quiescent network namespace:
// the ephemeral port cursor carries over, so a cloned
// world draws the same port sequence a cold-built one would.
func (n *Net) Clone() (*Net, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.listeners) > 0 || len(n.shards) > 0 {
		return nil, ErrNotQuiescent
	}
	return &Net{
		listeners: make(map[Addr]*Listener),
		shards:    make(map[Addr]*shardGroup),
		nextPort:  n.nextPort,
	}, nil
}
