package bench

// The serial closed loop behind Table 2's HTTP rows, the ring table,
// Figure 5 and the privilege corpus: the app serves from its serial
// Serve accept loop while one client on the load generator's host sends
// a request, reads the whole response, and sends the next.

import (
	"fmt"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/loadgen"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// clientHostIP is the load generator's address. The client runs at host
// level, dialling the simulated network directly — it models the
// paper's external load-generating machine, so none of its work is
// billed to the program's virtual clock.
var clientHostIP = simnet.HostIP(10, 0, 0, 99)

// httpGet sends one request (any method) from the load generator's host
// and reads the response, which must be a 200 meeting want
// (loadgen.CheckResponse).
func httpGet(net *simnet.Net, port uint16, req []byte, want loadgen.Expect, buf *[]byte) error {
	conn, err := net.Dial(clientHostIP, simnet.Addr{Host: core.DefaultHostIP, Port: port})
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.Write(req); err != nil {
		return err
	}
	return loadgen.CheckResponse(conn, want, buf)
}

// benchGet is the load generator's GET request for path.
func benchGet(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// exchange is one request of a closed loop and what its response body
// must be (the zero Expect accepts any 200 response).
type exchange struct {
	req  []byte
	want loadgen.Expect
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
	send := func(x exchange) error { return httpGet(net, l.port, x.req, x.want, &buf) }
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
		if err := httpGet(net, l.port, l.quit, loadgen.Expect{}, &buf); err != nil {
			return fmt.Errorf("quit: %w", err)
		}
		for i := len(handles) - 1; i >= 0; i-- {
			if err := handles[i].Join(t); err != nil {
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
	x := exchange{req: benchGet(path), want: loadgen.Expect{Len: want}}
	return closedLoop{
		port:     port,
		tasks:    tasks,
		warmup:   []exchange{{req: benchGet("/warmup")}},
		requests: n,
		next:     func(int) exchange { return x },
		quit:     benchGet("/quit"),
	}
}
