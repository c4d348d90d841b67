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

// stream is one direction of a connection: a bounded in-memory pipe
// that holds its bytes in a queue of fixed-size blocks drawn from
// blockPool. blocks[head] is read from offset r, the last block is
// written up to offset w, and n counts the buffered bytes. A block goes
// back to the pool as soon as the reader drains it, so an idle stream
// holds none.
type stream struct {
	mu     sync.Mutex
	cond   *sync.Cond
	blocks []*block
	head   int
	r, w   int
	n      int
	closed bool
}

// blockSize is one stream block. 1 KiB measured best: a 13 KB page
// spans 13 blocks, and 4 KiB blocks raised the live heap of request
// benchmarks (every queued request pins one block) with no throughput
// gain.
const blockSize = 1024

type block [blockSize]byte

// blockPool is shared by every stream in the process.
var blockPool = sync.Pool{New: func() any { return new(block) }}

func newStream() *stream {
	s := &stream{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// push appends a fresh tail block, compacting the drained front of the
// queue before growing it.
func (s *stream) push(b *block) {
	if len(s.blocks) == cap(s.blocks) && s.head > 0 {
		k := copy(s.blocks, s.blocks[s.head:])
		clear(s.blocks[k:])
		s.blocks, s.head = s.blocks[:k], 0
	}
	if s.blocks == nil {
		s.blocks = make([]*block, 0, 16)
	}
	s.blocks = append(s.blocks, b)
	s.w = 0
}

// pop returns the drained head block to the pool.
func (s *stream) pop() {
	blockPool.Put(s.blocks[s.head])
	s.blocks[s.head] = nil
	s.head++
	s.r = 0
	if s.head == len(s.blocks) {
		s.blocks, s.head, s.w = s.blocks[:0], 0, 0
	}
}

// writeFrom is the single write path: it appends n bytes, handing fill
// the tail block's free space piece by piece, and blocks while the
// buffer holds streamBufSize bytes. A piece is committed only when fill
// returns nil; a failed piece is discarded and the pieces before it
// stay delivered.
func (s *stream) writeFrom(n int, fill func(dst []byte, off int) error) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	written := 0
	for written < n {
		for !s.closed && s.n >= streamBufSize {
			s.cond.Wait()
		}
		if s.closed {
			return written, ErrClosed
		}
		room := min(streamBufSize-s.n, n-written)
		for room > 0 {
			var b *block
			w, fresh := s.w, s.head == len(s.blocks) || s.w == blockSize
			if fresh {
				b, w = blockPool.Get().(*block), 0
			} else {
				b = s.blocks[len(s.blocks)-1]
			}
			piece := b[w:min(blockSize, w+room)]
			if err := fill(piece, written); err != nil {
				if fresh {
					blockPool.Put(b)
				}
				s.cond.Broadcast()
				return written, err
			}
			if fresh {
				s.push(b)
			}
			s.w += len(piece)
			s.n += len(piece)
			written += len(piece)
			room -= len(piece)
		}
		s.cond.Broadcast()
	}
	return written, nil
}

// readTo is the single read path: blocking by default; under Nonblock
// it returns data if buffered, EOF if closed, ErrWouldBlock otherwise.
// It hands drain up to n buffered bytes in place, piece by piece; a
// piece is consumed only when drain returns nil, so a failed piece and
// everything after it stay readable.
func (s *stream) readTo(n int, f IOFlags, drain func(src []byte, off int) error) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.Nonblock {
		if s.n == 0 && !s.closed {
			return 0, ErrWouldBlock
		}
	} else {
		for s.n == 0 && !s.closed {
			s.cond.Wait()
		}
	}
	if s.n == 0 {
		return 0, ErrClosed // EOF after close
	}
	read := 0
	for read < n && s.n > 0 {
		end := blockSize
		if s.head == len(s.blocks)-1 {
			end = s.w
		}
		piece := s.blocks[s.head][s.r:min(end, s.r+n-read)]
		if err := drain(piece, read); err != nil {
			s.cond.Broadcast()
			return read, err
		}
		read += len(piece)
		s.n -= len(piece)
		s.r += len(piece)
		if s.r == end {
			s.pop()
		}
	}
	s.cond.Broadcast()
	return read, nil
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

// ReadTo receives up to n bytes from the peer under the given flags
// without an intermediate buffer: drain is handed the stream's own
// storage piece by piece, src holding the bytes at offset off of this
// read. It blocks until data or EOF, or under Nonblock returns
// ErrWouldBlock instead of waiting. A piece is consumed only when drain
// returns nil; on an error ReadTo returns the bytes consumed before the
// failing piece along with the error, and the failing piece stays
// readable. src is valid only during the call, and drain runs under
// the stream's lock: it must not block or use this connection.
func (c *Conn) ReadTo(n int, f IOFlags, drain func(src []byte, off int) error) (int, error) {
	return c.rd.readTo(n, f, drain)
}

// ReadFlags receives bytes from the peer under the given flags: it
// blocks until data or EOF, or under Nonblock returns ErrWouldBlock
// instead of waiting.
func (c *Conn) ReadFlags(p []byte, f IOFlags) (int, error) {
	return c.ReadTo(len(p), f, func(src []byte, off int) error { copy(p[off:], src); return nil })
}

// Read receives bytes from the peer, blocking until data or EOF.
func (c *Conn) Read(p []byte) (int, error) { return c.ReadFlags(p, IOFlags{}) }

// WriteFrom sends n bytes to the peer without an intermediate buffer:
// fill is handed the stream's own storage piece by piece and must fill
// dst with the bytes at offset off of this write. It blocks while the
// peer's buffer is full. A piece is delivered only when fill returns
// nil; on an error WriteFrom returns the bytes delivered before the
// failing piece along with the error. dst is valid only during the
// call, and fill runs under the stream's lock: it must not block or use
// this connection.
func (c *Conn) WriteFrom(n int, fill func(dst []byte, off int) error) (int, error) {
	return c.wr.writeFrom(n, fill)
}

// Write sends bytes to the peer.
func (c *Conn) Write(p []byte) (int, error) {
	return c.WriteFrom(len(p), func(dst []byte, off int) error { copy(dst, p[off:]); return nil })
}

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
	parked *sync.Cond // signalled when an accepter blocks on an empty queue
	queue  []*Conn
	closed bool
	// waiting counts accepters blocked on an empty queue.
	waiting int
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
			l.waiting++
			l.parked.Broadcast()
			l.cond.Wait()
			l.waiting--
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

// AwaitAccept blocks until a server is parked in Accept on addr's
// listener with nothing queued. It fails when nothing listens on addr
// or the listener closes first. A closed-loop client calls it before
// reading the virtual clock: the server's next accept is then charged,
// whichever host goroutine ran first.
func (n *Net) AwaitAccept(addr Addr) error {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for (l.waiting == 0 || len(l.queue) > 0) && !l.closed {
		l.parked.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	return nil
}

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
	l.parked.Broadcast()
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
	l.parked = sync.NewCond(&l.mu)
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
		l.parked = sync.NewCond(&l.mu)
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

// ResetTo returns a namespace cloned from the quiescent src to src's
// state in place: listeners and accept shards are dropped and the
// ephemeral port cursor rewinds, without allocating.
func (n *Net) ResetTo(src *Net) {
	src.mu.Lock()
	port := src.nextPort
	src.mu.Unlock()
	n.mu.Lock()
	clear(n.listeners)
	clear(n.shards)
	n.nextPort = port
	n.mu.Unlock()
}
