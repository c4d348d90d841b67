package bench

// The serial closed loop behind Table 2's HTTP rows, the ring table,
// Figure 5 and the privilege corpus: the app serves from its serial
// Serve accept loop while one client on the load generator's host sends
// a request, reads the whole response, and sends the next.

import (
	"bytes"
	"fmt"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// clientHostIP is the load generator's address. The client runs at host
// level, dialling the simulated network directly — it models the
// paper's external load-generating machine, so none of its work is
// billed to the program's virtual clock.
var clientHostIP = simnet.HostIP(10, 0, 0, 99)

// HTTPGet sends one request (any method) from the load generator's host
// and reads the response until the server closes the connection. It
// returns the body of a 200 response as a slice of *buf, which grows
// only when a response outgrows it, so a client that keeps its buffer
// across requests reads each response without a new copy. Concurrent
// clients each own their buffer.
func HTTPGet(net *simnet.Net, port uint16, req []byte, buf *[]byte) ([]byte, error) {
	conn, err := net.Dial(clientHostIP, simnet.Addr{Host: core.DefaultHostIP, Port: port})
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if _, err := conn.Write(req); err != nil {
		return nil, err
	}
	b, n := (*buf)[:cap(*buf)], 0
	for {
		if n == len(b) {
			b = append(b, make([]byte, max(len(b), 32<<10))...)
		}
		m, err := conn.Read(b[n:])
		n += m
		if err != nil {
			break // server closed: response complete
		}
	}
	*buf = b
	resp := b[:n]
	if !bytes.HasPrefix(resp, statusOK) {
		return nil, fmt.Errorf("bad response: %.60q", resp)
	}
	_, body, ok := bytes.Cut(resp, headerEnd)
	if !ok {
		return nil, fmt.Errorf("no header/body separator")
	}
	return body, nil
}

var (
	statusOK  = []byte("HTTP/1.1 200 OK")
	headerEnd = []byte("\r\n\r\n")
)

// benchGet is the load generator's GET request for path.
func benchGet(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// exchange is one request of a closed loop and the check its response
// body must pass (nil accepts any 200 response).
type exchange struct {
	req   []byte
	check func(body []byte) error
}

func bodyLen(want int) func([]byte) error {
	return func(body []byte) error {
		if len(body) != want {
			return fmt.Errorf("body %dB, want %dB", len(body), want)
		}
		return nil
	}
}

func bodyHas(want string) func([]byte) error {
	return func(body []byte) error {
		if !bytes.Contains(body, []byte(want)) {
			return fmt.Errorf("body lacks %q: %.80q", want, body)
		}
		return nil
	}
}

// serialTask is one task an app starts to serve a closed loop. run
// closes ready once the task can take requests.
type serialTask struct {
	name string
	run  func(t *core.Task, ready chan<- struct{}) error
}

// closedLoop is what an app supplies to a serial run: the tasks that
// serve it, in start order, and its request sequence on port.
type closedLoop struct {
	port     uint16
	tasks    []serialTask
	warmup   []exchange // sent before the clock starts
	requests int
	next     func(i int) exchange // the i-th measured request
	quit     []byte               // ends the server's accept loop
}

// runClosedLoop runs prog serially: it starts the loop's tasks and
// waits until every one is ready, sends the warm-up, then times the
// measured requests on the virtual clock. It sends quit and joins
// every task, last started first. It returns the measured virtual-time
// throughput in requests per second.
//
// Each clock read waits until the server is parked in its next accept,
// so the accept the server issues after a response is charged before
// the read whichever host goroutine runs first.
func runClosedLoop(prog *core.Program, l closedLoop) (float64, error) {
	net := prog.Net()
	now := func() (int64, error) {
		err := net.AwaitAccept(simnet.Addr{Host: core.DefaultHostIP, Port: l.port})
		return prog.Clock().Now(), err
	}
	var buf []byte // the client's response buffer
	send := func(x exchange) error {
		body, err := HTTPGet(net, l.port, x.req, &buf)
		if err == nil && x.check != nil {
			err = x.check(body)
		}
		return err
	}
	var elapsed int64
	err := prog.Run(func(t *core.Task) error {
		handles := make([]*core.Handle, len(l.tasks))
		readies := make([]chan struct{}, len(l.tasks))
		for i, task := range l.tasks {
			ready := make(chan struct{})
			readies[i] = ready
			handles[i] = t.Go(task.name, func(t *core.Task) error { return task.run(t, ready) })
		}
		for _, ready := range readies {
			<-ready
		}
		for _, x := range l.warmup {
			if err := send(x); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		start, err := now()
		if err != nil {
			return err
		}
		for i := 0; i < l.requests; i++ {
			if err := send(l.next(i)); err != nil {
				return fmt.Errorf("request %d: %w", i, err)
			}
		}
		end, err := now()
		if err != nil {
			return err
		}
		elapsed = end - start
		if _, err := HTTPGet(net, l.port, l.quit, &buf); err != nil {
			return fmt.Errorf("quit: %w", err)
		}
		for i := len(handles) - 1; i >= 0; i-- {
			if err := handles[i].Join(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(l.requests) / (float64(elapsed) / 1e9), nil
}

// pageLoop is the Table 2 request sequence: a /warmup request, then n
// requests for path whose bodies must be want bytes, then /quit.
func pageLoop(port uint16, tasks []serialTask, n int, path string, want int) closedLoop {
	x := exchange{req: benchGet(path), check: bodyLen(want)}
	return closedLoop{
		port:     port,
		tasks:    tasks,
		warmup:   []exchange{{req: benchGet("/warmup")}},
		requests: n,
		next:     func(int) exchange { return x },
		quit:     benchGet("/quit"),
	}
}
