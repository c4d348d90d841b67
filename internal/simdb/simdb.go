// Package simdb stands in for the PostgreSQL instance of the paper's
// wiki web-app usability study (§6.3, Figure 5). The database runs at
// host level on the simulated network — a separate machine, like the
// load generator — speaking a tiny line-oriented key-value protocol.
// Its accept loop is a goroutine, and each connection's handler a
// simnet.Go coroutine that answers on the goroutine of whoever sends
// it a command:
//
//	GET <key>\n                → VAL <len>\n<len bytes>  |  NIL\n
//	SET <key> <len>\n<bytes>   → OK\n
//
// The in-program side is the pq driver (package Pq below): the
// deprecated lib/pq Postgres driver the wiki uses, registered as an
// untrusted public package whose only capability — once enclosed — is
// talking to the database's address.
package simdb

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"github.com/litterbox-project/enclosure/internal/simnet"
)

// Addr is where the simulated Postgres listens.
var Addr = simnet.Addr{Host: simnet.HostIP(10, 0, 0, 2), Port: 5432}

// Server is the host-level database process.
type Server struct {
	mu     sync.Mutex
	data   map[string][]byte
	ln     *simnet.Listener
	done   sync.WaitGroup
	closed bool
}

// Start launches the database on the network and serves until Close.
func Start(net *simnet.Net) (*Server, error) {
	ln, err := net.Listen(Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{data: make(map[string][]byte), ln: ln}
	s.done.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Close stops the server and waits for its goroutines.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	_ = s.ln.Close()
	s.done.Wait()
}

// Put seeds a row directly (test setup).
func (s *Server) Put(key string, val []byte) {
	s.mu.Lock()
	s.data[key] = append([]byte(nil), val...)
	s.mu.Unlock()
}

// Get reads a row directly (test assertions).
func (s *Server) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

func (s *Server) acceptLoop() {
	defer s.done.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.done.Add(1)
		simnet.Go(func(sched simnet.Sched) {
			defer s.done.Done()
			s.serveConn(conn, simnet.IOFlags{Sched: sched})
		})
	}
}

// serveConn answers one connection's commands. It runs as a simnet.Go
// coroutine whose every wait goes through f.
func (s *Server) serveConn(conn *simnet.Conn, f simnet.IOFlags) {
	defer conn.Close()
	var buf []byte
	tmp := make([]byte, 4096)
	for {
		// Read until we can satisfy one command.
		line, rest, ok := cutLine(buf)
		if !ok {
			n, err := conn.ReadFlags(tmp, f)
			if n > 0 {
				buf = append(buf, tmp[:n]...)
			}
			if err != nil {
				return
			}
			continue
		}
		buf = rest
		fields := strings.Fields(line)
		switch {
		case len(fields) == 2 && fields[0] == "GET":
			s.mu.Lock()
			val, found := s.data[fields[1]]
			s.mu.Unlock()
			if !found {
				if _, err := conn.WriteFlags([]byte("NIL\n"), f); err != nil {
					return
				}
				continue
			}
			// Header and value go out in one write: written apart, a
			// client could wake between them, and how many recv calls
			// it needs (each one charged in virtual time) would depend
			// on host scheduling.
			resp := append([]byte(fmt.Sprintf("VAL %d\n", len(val))), val...)
			if _, err := conn.WriteFlags(resp, f); err != nil {
				return
			}
		case len(fields) == 3 && fields[0] == "SET":
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 || n > 1<<20 {
				if _, err := conn.WriteFlags([]byte("ERR\n"), f); err != nil {
					return
				}
				continue
			}
			for len(buf) < n {
				m, err := conn.ReadFlags(tmp, f)
				if m > 0 {
					buf = append(buf, tmp[:m]...)
				}
				if err != nil {
					return
				}
			}
			s.mu.Lock()
			s.data[fields[1]] = append([]byte(nil), buf[:n]...)
			s.mu.Unlock()
			buf = buf[n:]
			if _, err := conn.WriteFlags([]byte("OK\n"), f); err != nil {
				return
			}
		default:
			if _, err := conn.WriteFlags([]byte("ERR\n"), f); err != nil {
				return
			}
		}
	}
}

func cutLine(b []byte) (line string, rest []byte, ok bool) {
	for i, c := range b {
		if c == '\n' {
			return string(b[:i]), b[i+1:], true
		}
	}
	return "", b, false
}
