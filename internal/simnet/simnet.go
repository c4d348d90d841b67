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
	"sync/atomic"
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
	// Sched is the scheduler of the simulated program whose task makes
	// the call (nil for a host goroutine, whose wait blocks it).
	// The operation waits through it, and readies the waits it ends
	// in that program's order.
	Sched Sched
}

// Sched is how the caller of a network operation waits and wakes: a
// simulated program's run queue (internal/core), a Go coroutine, or a
// host goroutine's (a nil IOFlags.Sched). A task never blocks its host
// goroutine on the network: it lists a Waiter where the wake will come
// from, and Block lets the program's other tasks run until the wake.
type Sched interface {
	// Waiter returns a wait for the calling task.
	Waiter() Waiter
	// Block lets the program's other tasks run until w is woken and
	// returns on the calling task's next turn.
	Block(w Waiter)
	// Wake readies w for the calling task: behind the waits it readied
	// before when w waits in the same program, as w.Wake otherwise.
	Wake(w Waiter)
}

// Waiter is one wait on a stream or listener.
type Waiter interface {
	// Wake readies the wait from outside its program.
	Wake()
}

// waiters are the waits on one condition guarded by a stream's or a
// listener's lock. A broadcast ends them all once the broadcaster
// drops the lock, since readying a simulated task may run it.
type waiters struct {
	list  []Waiter
	woken bool // a broadcast ended the waits in list
}

// broadcast ends every wait. The caller holds the lock.
func (ws *waiters) broadcast() { ws.woken = len(ws.list) > 0 }

// wait blocks the caller, which holds mu, until a broadcast, through s
// (nil: a host goroutine's wait), and returns holding mu; the caller
// re-checks its condition. Wakes a broadcast still owes go out first,
// and the caller returns at once.
func (ws *waiters) wait(mu *sync.Mutex, s Sched) {
	s = orHost(s)
	if ws.woken {
		ws.unlock(mu, s)
	} else {
		w := s.Waiter()
		ws.list = append(ws.list, w)
		mu.Unlock()
		s.Block(w)
	}
	mu.Lock()
}

// unlock drops mu and readies the waits a broadcast ended, on behalf of
// by's running task (nil: a host goroutine).
func (ws *waiters) unlock(mu *sync.Mutex, by Sched) {
	if !ws.woken {
		mu.Unlock()
		return
	}
	var buf [2]Waiter
	woken := append(buf[:0], ws.list...)
	clear(ws.list)
	ws.list, ws.woken = ws.list[:0], false
	mu.Unlock()
	by = orHost(by)
	for _, w := range woken {
		by.Wake(w)
	}
}

// hostSched is the Sched of a host goroutine outside any program: a
// wait blocks the goroutine on a one-slot channel from hostWaits.
type hostSched struct{}

type hostWaiter chan struct{}

var hostWaits = sync.Pool{New: func() any { return make(hostWaiter, 1) }}

func orHost(s Sched) Sched {
	if s == nil {
		return hostSched{}
	}
	return s
}

func (hostSched) Waiter() Waiter { return hostWaits.Get().(hostWaiter) }
func (hostSched) Wake(w Waiter)  { w.Wake() }
func (hostSched) Block(w Waiter) {
	<-w.(hostWaiter)
	hostWaits.Put(w)
}

func (w hostWaiter) Wake() { w <- struct{}{} }

// stream is one direction of a connection: a bounded in-memory pipe
// that holds its bytes in a queue of fixed-size blocks drawn from
// blockPool. blocks[head] is read from offset r, the last block is
// written up to offset w, and n counts the buffered bytes. A block goes
// back to the pool as soon as the reader drains it, so an idle stream
// holds none. The queue starts in the stream's inline array, so a
// message of up to len(inline) blocks allocates no queue.
type stream struct {
	mu     sync.Mutex
	ws     waiters // readers and writers
	blocks []*block
	inline [2]*block
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

// init readies a zero stream in place: the stream must not move after.
func (s *stream) init() {
	s.blocks = s.inline[:0]
}

// grownQueue is the capacity a queue takes once it outgrows the inline
// array: a 13 KB page spans 13 blocks.
const grownQueue = 16

// push appends a fresh tail block, compacting the drained front of the
// queue before growing it.
func (s *stream) push(b *block) {
	if len(s.blocks) == cap(s.blocks) {
		if s.head > 0 {
			k := copy(s.blocks, s.blocks[s.head:])
			clear(s.blocks[k:])
			s.blocks, s.head = s.blocks[:k], 0
		} else if cap(s.blocks) < grownQueue {
			grown := make([]*block, len(s.blocks), grownQueue)
			copy(grown, s.blocks)
			clear(s.blocks)
			s.blocks = grown
		}
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
// stay delivered. f.Sched waits and wakes as IOFlags says.
func (s *stream) writeFrom(n int, f IOFlags, fill func(dst []byte, off int) error) (int, error) {
	s.mu.Lock()
	defer s.ws.unlock(&s.mu, f.Sched)
	written := 0
	for written < n {
		for !s.closed && s.n >= streamBufSize {
			s.ws.wait(&s.mu, f.Sched)
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
				s.ws.broadcast()
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
		s.ws.broadcast()
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
	defer s.ws.unlock(&s.mu, f.Sched)
	if f.Nonblock {
		if s.n == 0 && !s.closed {
			return 0, ErrWouldBlock
		}
	} else {
		for s.n == 0 && !s.closed {
			s.ws.wait(&s.mu, f.Sched)
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
			s.ws.broadcast()
			return read, err
		}
		read += len(piece)
		s.n -= len(piece)
		s.r += len(piece)
		if s.r == end {
			s.pop()
		}
	}
	s.ws.broadcast()
	return read, nil
}

func (s *stream) close() {
	s.mu.Lock()
	s.closed = true
	s.ws.broadcast()
	s.ws.unlock(&s.mu, nil)
}

// Conn is one endpoint of an established connection.
type Conn struct {
	local, remote Addr
	rd, wr        *stream
	closed        atomic.Bool
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
// peer's buffer is full, through f.Sched when set. A piece is delivered only when fill returns
// nil; on an error WriteFrom returns the bytes delivered before the
// failing piece along with the error. dst is valid only during the
// call, and fill runs under the stream's lock: it must not block or use
// this connection.
func (c *Conn) WriteFrom(n int, f IOFlags, fill func(dst []byte, off int) error) (int, error) {
	return c.wr.writeFrom(n, f, fill)
}

// WriteFlags sends bytes to the peer, waiting through f.Sched while
// its buffer is full.
func (c *Conn) WriteFlags(p []byte, f IOFlags) (int, error) {
	return c.WriteFrom(len(p), f, func(dst []byte, off int) error { copy(dst, p[off:]); return nil })
}

// Write sends bytes to the peer.
func (c *Conn) Write(p []byte) (int, error) { return c.WriteFlags(p, IOFlags{}) }

// Close shuts down both directions. The tasks it wakes may run before
// it returns, and may close c too.
func (c *Conn) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		c.rd.close()
		c.wr.close()
	}
	return nil
}

// pair is a connection's two endpoints and two directions in one
// allocation.
type pair struct {
	a2b, b2a stream
	a, b     Conn
}

// newPair connects endpoint a at addrA to endpoint b at addrB.
func newPair(addrA, addrB Addr) (*Conn, *Conn) {
	p := &pair{}
	p.a2b.init()
	p.b2a.init()
	p.a = Conn{local: addrA, remote: addrB, rd: &p.b2a, wr: &p.a2b}
	p.b = Conn{local: addrB, remote: addrA, rd: &p.a2b, wr: &p.b2a}
	return &p.a, &p.b
}

// Pair returns two connected endpoints with no listener involved — the
// substrate behind pipe(2) and socketpair(2) in the simulated kernel.
func Pair() (*Conn, *Conn) { return newPair(Addr{}, Addr{}) }

// Listener accepts incoming connections on a bound address.
type Listener struct {
	addr   Addr
	net    *Net
	mu     sync.Mutex
	ws     waiters   // accepters
	parked sync.Cond // signalled when an accepter blocks on an empty queue
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
	defer l.ws.unlock(&l.mu, f.Sched)
	if f.Nonblock {
		if len(l.queue) == 0 && !l.closed {
			return nil, ErrWouldBlock
		}
	} else {
		for len(l.queue) == 0 && !l.closed {
			l.waiting++
			l.parked.Broadcast()
			l.ws.wait(&l.mu, f.Sched)
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

// Close stops the listener and releases its address.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.closed = true
	l.ws.broadcast()
	l.parked.Broadcast()
	l.ws.unlock(&l.mu, nil)

	l.net.mu.Lock()
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()
	return nil
}

func (l *Listener) enqueue(c *Conn, by Sched) error {
	l.mu.Lock()
	defer l.ws.unlock(&l.mu, by)
	if l.closed || len(l.queue) >= acceptQueueSize {
		return ErrConnRefused
	}
	l.queue = append(l.queue, c)
	l.ws.broadcast()
	return nil
}

// Net is one simulated network namespace.
type Net struct {
	mu        sync.Mutex
	listeners map[Addr]*Listener
	nextPort  uint16
}

// New returns an empty network.
func New() *Net {
	return &Net{
		listeners: make(map[Addr]*Listener),
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
	l := &Listener{addr: addr, net: n}
	l.parked.L = &l.mu
	n.listeners[addr] = l
	return l, nil
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
		if !inUse {
			return p
		}
	}
}

// Dial connects from local (host only; port is ephemeral) to remote.
func (n *Net) Dial(localHost uint32, remote Addr) (*Conn, error) {
	return n.DialFlags(localHost, remote, IOFlags{})
}

// DialFlags is Dial for a caller that may be a simulated task: f.Sched
// readies the accept it ends, as a write does.
func (n *Net) DialFlags(localHost uint32, remote Addr, f IOFlags) (*Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[remote]
	if !ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, remote)
	}
	local := Addr{Host: localHost, Port: n.ephemeralLocked()}
	n.mu.Unlock()

	clientSide, serverSide := newPair(local, remote)
	if err := l.enqueue(serverSide, f.Sched); err != nil {
		return nil, err
	}
	return clientSide, nil
}

// ErrNotQuiescent is returned by Clone when the namespace still has live
// listeners: streams and accept queues hold goroutine
// rendezvous state that cannot be meaningfully duplicated, so snapshot
// capture requires a quiescent network.
var ErrNotQuiescent = errors.New("simnet: cannot clone a namespace with live listeners")

// Clone returns an independent copy of a quiescent network namespace:
// the ephemeral port cursor carries over, so a cloned
// world draws the same port sequence a cold-built one would.
func (n *Net) Clone() (*Net, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.listeners) > 0 {
		return nil, ErrNotQuiescent
	}
	return &Net{
		listeners: make(map[Addr]*Listener),
		nextPort:  n.nextPort,
	}, nil
}

// ResetTo returns a namespace cloned from the quiescent src to src's
// state in place: listeners are dropped and the
// ephemeral port cursor rewinds, without allocating.
func (n *Net) ResetTo(src *Net) {
	src.mu.Lock()
	port := src.nextPort
	src.mu.Unlock()
	n.mu.Lock()
	clear(n.listeners)
	n.nextPort = port
	n.mu.Unlock()
}
