package bench

import (
	"fmt"

	"github.com/litterbox-project/enclosure/internal/apps/wiki"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/simdb"
)

// WikiRequests is the measured request count (half views, half saves).
const WikiRequests = 300

// wikiWelcome is the page the wiki's database is seeded with.
const wikiWelcome = "hello from the enclosure wiki"

// wikiLoop is the wiki's closed loop on port: the trusted glue ○A, the
// ○C db-proxy and the ○B http-server's serial accept loop, loaded with
// n requests that alternate saving page p<i> and viewing it back.
func wikiLoop(prog *core.Program, port uint16, n int) closedLoop {
	reqs := make(chan wiki.Request, 16)
	queries := make(chan wiki.Query, 16)
	tasks := []serialTask{
		{"glue", func(t *core.Task, ready chan<- struct{}) error {
			close(ready)
			return wiki.Glue(t, reqs, queries)
		}},
		{"db-proxy", func(t *core.Task, ready chan<- struct{}) error {
			_, err := prog.MustEnclosure("db-proxy").Call(t, wiki.ProxyArgs{Queries: queries, Ready: ready})
			return err
		}},
		{"http-server", func(t *core.Task, ready chan<- struct{}) error {
			_, err := prog.MustEnclosure("http-server").Call(t, wiki.ServeArgs{Port: port, Reqs: reqs, Ready: ready})
			return err
		}},
	}
	return closedLoop{
		port:     port,
		tasks:    tasks,
		requests: n,
		next: func(i int) exchange {
			if i%2 == 0 {
				body := fmt.Sprintf("content-%d", i)
				req := fmt.Sprintf("POST /save/p%d HTTP/1.1\r\nHost: wiki\r\nContent-Length: %d\r\n\r\n%s", i, len(body), body)
				return exchange{req: []byte(req), check: bodyHas("saved")}
			}
			return exchange{req: wikiView(fmt.Sprintf("p%d", i-1)), check: bodyHas(fmt.Sprintf("content-%d", i-1))}
		},
		quit: []byte("GET /quit HTTP/1.1\r\n\r\n"),
	}
}

func wikiView(page string) []byte {
	return []byte("GET /view/" + page + " HTTP/1.1\r\nHost: wiki\r\n\r\n")
}

// runWiki runs l on the wiki program prog against a simulated Postgres
// seeded with the welcome page.
func runWiki(prog *core.Program, l closedLoop) (float64, error) {
	db, err := simdb.Start(prog.Net())
	if err != nil {
		return 0, err
	}
	defer db.Close()
	db.Put("welcome", []byte(wikiWelcome))
	return runClosedLoop(prog, l)
}

// RunWiki reproduces Figure 5: the wiki web-app with the HTTP server
// (mux) in enclosure ○B and the Postgres driver (pq) in enclosure ○C,
// glued by trusted code over private Go channels. The paper reports a
// throughput slowdown "similar to the one in the FastHTTP experiment".
func RunWiki(kind core.BackendKind) (MacroResult, error) {
	prog, err := wiki.Program(kind, wiki.PolicyServer, wiki.PolicyProxy)
	if err != nil {
		return MacroResult{}, err
	}
	l := wikiLoop(prog, 8090, WikiRequests)
	// Warm-up: view the seeded page and verify content end to end.
	l.warmup = []exchange{{req: wikiView("welcome"), check: bodyHas(wikiWelcome)}}
	rate, err := runWiki(prog, l)
	return serialResult("wiki", kind, prog, rate, err)
}
