package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// ServeOpts configures a sharded accept loop.
type ServeOpts struct {
	// Port to listen on (at the program's own address).
	Port uint16
	// Shards is the number of SO_REUSEPORT-style accept shards
	// (default: one per worker). Shard i prefers worker i%Workers, so
	// connections land on their accepting core's queue and stealing
	// only kicks in under imbalance.
	Shards int
	// Conn handles one connection. It runs as a task on the worker
	// that dequeued the job; fd is the connection's descriptor in that
	// worker's process context.
	Conn func(t *core.Task, fd int) error
}

// Server is a running sharded accept loop over an engine.
type Server struct {
	e           *Engine
	shards      []*simnet.Listener
	wg          sync.WaitGroup
	accepted    atomic.Int64
	shed        atomic.Int64
	closedDrops atomic.Int64
}

// Serve starts opts.Shards accept loops on opts.Port, dispatching each
// accepted connection to the engine with the accepting shard's worker
// as affinity. When every run queue is full the connection is closed
// instead of queued — admission control at the edge.
func (e *Engine) Serve(opts ServeOpts) (*Server, error) {
	if opts.Conn == nil {
		return nil, errors.New("engine: ServeOpts.Conn is required")
	}
	n := opts.Shards
	if n <= 0 {
		n = len(e.workers)
	}
	addr := simnet.Addr{Host: core.DefaultHostIP, Port: opts.Port}
	lns, err := e.prog.Net().ListenShards(addr, n)
	if err != nil {
		return nil, err
	}
	s := &Server{e: e, shards: lns}
	for i, ln := range lns {
		s.wg.Add(1)
		go s.accept(i, ln, opts)
	}
	return s, nil
}

func (s *Server) accept(shard int, ln *simnet.Listener, opts ServeOpts) {
	defer s.wg.Done()
	pref := shard % len(s.e.workers)
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // shard closed
		}
		err = s.e.Submit(JobSpec{Pref: pref, Name: fmt.Sprintf("conn-s%d", shard), Fn: func(t *core.Task) error {
			// Inject at exec time into the *executor's* proc: a stolen
			// job runs on a different worker than the acceptor's
			// preference, and the fd must live in the fd table its
			// syscalls resolve against.
			fd := t.Worker().Proc().InjectConn(conn)
			return opts.Conn(t, fd)
		}})
		if err != nil {
			// Either way the client sees a reset (ErrClosed on its
			// conn), but the accounting differs: ErrBackpressure is a
			// shed — admission control dropping from a full backlog, the
			// load generator's SLO denominator — while ErrClosed means
			// the engine is gone and the shard is about to be closed
			// too, a shutdown artifact that must not inflate the shed
			// rate.
			conn.Close()
			if errors.Is(err, ErrBackpressure) {
				s.shed.Add(1)
			} else {
				s.closedDrops.Add(1)
			}
			continue
		}
		s.accepted.Add(1)
	}
}

// Shed returns how many connections were dropped under backpressure
// (Submit returned ErrBackpressure). Connections dropped because the
// engine had already closed are counted separately, not here.
func (s *Server) Shed() int64 { return s.shed.Load() }

// Close stops the accept shards and waits for the acceptor goroutines.
// Already-queued connections still execute; drain them with
// Engine.Close.
func (s *Server) Close() {
	for _, ln := range s.shards {
		_ = ln.Close()
	}
	s.wg.Wait()
}
