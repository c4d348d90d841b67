package bench

import (
	"fmt"
	"strings"

	"github.com/litterbox-project/enclosure/internal/apps/wiki"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/simdb"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// WikiRequests is the measured request count (half views, half saves).
const WikiRequests = 300

// wikiPost performs one POST /save request.
func wikiPost(net *simnet.Net, port uint16, page, body string) error {
	conn, err := net.Dial(clientHostIP, simnet.Addr{Host: core.DefaultHostIP, Port: port})
	if err != nil {
		return err
	}
	defer conn.Close()
	req := fmt.Sprintf("POST /save/%s HTTP/1.1\r\nHost: wiki\r\nContent-Length: %d\r\n\r\n%s", page, len(body), body)
	if _, err := conn.Write([]byte(req)); err != nil {
		return err
	}
	resp, err := readAll(conn)
	if err != nil {
		return err
	}
	if !strings.Contains(resp, "saved") {
		return fmt.Errorf("save %s: unexpected response %.80q", page, resp)
	}
	return nil
}

// wikiView performs one GET /view request and returns the HTML body.
func wikiView(net *simnet.Net, port uint16, page string) (string, error) {
	conn, err := net.Dial(clientHostIP, simnet.Addr{Host: core.DefaultHostIP, Port: port})
	if err != nil {
		return "", err
	}
	defer conn.Close()
	req := "GET /view/" + page + " HTTP/1.1\r\nHost: wiki\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		return "", err
	}
	resp, err := readAll(conn)
	if err != nil {
		return "", err
	}
	_, body, _ := strings.Cut(resp, "\r\n\r\n")
	return body, nil
}

func readAll(conn *simnet.Conn) (string, error) {
	var resp []byte
	buf := make([]byte, 32*1024)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			resp = append(resp, buf[:n]...)
		}
		if err != nil {
			return string(resp), nil
		}
	}
}

// RunWiki reproduces Figure 5: the wiki web-app with the HTTP server
// (mux) in enclosure ○B and the Postgres driver (pq) in enclosure ○C,
// glued by trusted code over private Go channels. The paper reports a
// throughput slowdown "similar to the one in the FastHTTP experiment".
func RunWiki(kind core.BackendKind) (MacroResult, error) {
	b := core.NewBuilder(kind)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{wiki.MuxPkg, wiki.PqPkg},
		Vars:    map[string]int{"db_password": 32, "page_templates": 4096},
		Origin:  "app", LOC: 120,
	})
	wiki.Register(b)
	b.Enclosure("http-server", "main", wiki.PolicyServer,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call(wiki.MuxPkg, "Serve", args[0])
		}, wiki.MuxPkg)
	b.Enclosure("db-proxy", "main", wiki.PolicyProxy,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call(wiki.PqPkg, "Proxy", args[0])
		}, wiki.PqPkg)
	prog, err := b.Build()
	if err != nil {
		return MacroResult{}, err
	}

	db, err := simdb.Start(prog.Net())
	if err != nil {
		return MacroResult{}, err
	}
	defer db.Close()
	db.Put("welcome", []byte("hello from the enclosure wiki"))

	const port = 8090
	srvReady := make(chan struct{})
	proxyReady := make(chan struct{})
	reqCh := make(chan wiki.Request, 16)
	queryCh := make(chan wiki.Query, 16)

	var reqs int
	var elapsed int64
	err = prog.Run(func(t *core.Task) error {
		glue := t.Go("glue", func(t *core.Task) error {
			return wiki.Glue(t, reqCh, queryCh)
		})
		proxy := t.Go("db-proxy", func(t *core.Task) error {
			_, err := prog.MustEnclosure("db-proxy").Call(t, wiki.ProxyArgs{Queries: queryCh, Ready: proxyReady})
			return err
		})
		srv := t.Go("http-server", func(t *core.Task) error {
			_, err := prog.MustEnclosure("http-server").Call(t, wiki.ServeArgs{Port: port, Reqs: reqCh, Ready: srvReady})
			return err
		})
		<-srvReady
		<-proxyReady

		// Warm-up: view the seeded page and verify content end to end.
		body, err := wikiView(prog.Net(), port, "welcome")
		if err != nil {
			return err
		}
		if !strings.Contains(body, "hello from the enclosure wiki") {
			return fmt.Errorf("wiki: warmup view mismatch: %.80q", body)
		}

		start := prog.Clock().Now()
		for i := 0; i < WikiRequests; i++ {
			if i%2 == 0 {
				if err := wikiPost(prog.Net(), port, fmt.Sprintf("p%d", i), fmt.Sprintf("content-%d", i)); err != nil {
					return err
				}
			} else {
				body, err := wikiView(prog.Net(), port, fmt.Sprintf("p%d", i-1))
				if err != nil {
					return err
				}
				if !strings.Contains(body, fmt.Sprintf("content-%d", i-1)) {
					return fmt.Errorf("wiki: view %d mismatch: %.80q", i, body)
				}
			}
			reqs++
		}
		elapsed = prog.Clock().Now() - start

		conn, err := prog.Net().Dial(clientHostIP, simnet.Addr{Host: core.DefaultHostIP, Port: port})
		if err == nil {
			_, _ = conn.Write([]byte("GET /quit HTTP/1.1\r\n\r\n"))
			_, _ = readAll(conn)
			conn.Close()
		}
		if err := srv.Join(); err != nil {
			return err
		}
		if err := glue.Join(); err != nil {
			return err
		}
		return proxy.Join()
	})
	if err != nil {
		return MacroResult{}, err
	}
	return MacroResult{
		Benchmark: "wiki",
		Backend:   kind,
		Raw:       float64(reqs) / (float64(elapsed) / 1e9),
		Unit:      "reqs/s",
		Counters:  prog.Counters().Snapshot(),
	}, nil
}
