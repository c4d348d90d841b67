// Webserver: FastHTTP with secured callbacks (§6.2).
//
// The industry-grade FastHTTP server — 374K lines of public code — runs
// entirely inside an enclosure allowed only socket operations. Parsed
// requests cross into trusted code over a Go channel; the trusted
// handler (which in a real deployment guards databases and keys the
// server can never touch) fills the server's reused response buffer.
//
//	go run ./examples/webserver [-backend mpk|vtx|baseline] [-requests N]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"github.com/litterbox-project/enclosure"
	"github.com/litterbox-project/enclosure/internal/apps/fasthttp"
	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

func main() {
	backendName := flag.String("backend", "mpk", "baseline|mpk|vtx")
	requests := flag.Int("requests", 50, "requests to serve")
	flag.Parse()
	backend := map[string]enclosure.Backend{
		"baseline": enclosure.Baseline, "mpk": enclosure.MPK, "vtx": enclosure.VTX,
	}[*backendName]

	b := enclosure.New(backend)
	b.Package(enclosure.PackageSpec{
		Name:    "main",
		Imports: []string{fasthttp.Pkg},
		Vars:    map[string]int{"db_password": 64},
		Origin:  "app", LOC: 76,
	})
	fasthttp.Register(b)
	b.Enclosure("server", "main", fasthttp.Policy,
		func(t *enclosure.Task, args ...enclosure.Value) ([]enclosure.Value, error) {
			return t.Call(fasthttp.Pkg, "Serve", args[0])
		}, fasthttp.Pkg)
	prog, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	const port = 8081
	ready := make(chan struct{})
	reqCh := enclosure.NewHandoff[fasthttp.Request](16)
	page := httpserv.StaticPage()

	err = prog.Run(func(t *enclosure.Task) error {
		handler := t.Go("trusted-handler", func(t *enclosure.Task) error {
			return fasthttp.HandleLoop(t, reqCh, page)
		})
		srv := t.Go("fasthttp-server", func(t *enclosure.Task) error {
			_, err := prog.MustEnclosure("server").Call(t, fasthttp.ServeArgs{
				Port: port, Reqs: reqCh, Ready: ready,
			})
			return err
		})
		<-ready

		client := simnet.HostIP(10, 0, 0, 99)
		// Read the clock only once the server is parked in its next
		// accept: the server's goroutine charges it until then.
		addr := simnet.Addr{Host: enclosure.DefaultHostIP(), Port: port}
		if err := prog.Net().AwaitAccept(addr); err != nil {
			return err
		}
		start := prog.Clock().Now()
		for i := 0; i < *requests; i++ {
			conn, err := prog.Net().Dial(client, addr)
			if err != nil {
				return err
			}
			fmt.Fprintf(conn, "GET /page-%d HTTP/1.1\r\nHost: demo\r\n\r\n", i)
			buf := make([]byte, 32*1024)
			var resp []byte
			for {
				n, err := conn.Read(buf)
				if n > 0 {
					resp = append(resp, buf[:n]...)
				}
				if err != nil {
					break
				}
			}
			conn.Close()
			if !strings.HasPrefix(string(resp), "HTTP/1.1 200 OK") {
				return fmt.Errorf("request %d failed: %.40q", i, resp)
			}
		}
		if err := prog.Net().AwaitAccept(addr); err != nil {
			return err
		}
		elapsed := prog.Clock().Now() - start

		// Stop the server.
		conn, err := prog.Net().Dial(client, addr)
		if err == nil {
			fmt.Fprintf(conn, "GET /quit HTTP/1.1\r\n\r\n")
			io := make([]byte, 32*1024)
			for {
				if _, err := conn.Read(io); err != nil {
					break
				}
			}
			conn.Close()
		}
		if err := srv.Join(t); err != nil {
			return err
		}
		if err := handler.Join(t); err != nil {
			return err
		}

		perReq := float64(elapsed) / float64(*requests) / 1000
		fmt.Printf("served %d requests on %s: %.1fµs/request (%.0f req/s, virtual)\n",
			*requests, backend, perReq, 1e6/perReq)
		c := prog.Counters().Snapshot()
		fmt.Printf("hardware: %d syscalls (%d VM exits, %d BPF evaluations), %d switches\n",
			c.Syscalls, c.VMExits, c.BPFRuns, c.Switches)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
