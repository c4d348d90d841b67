package wiki_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure/internal/apps/wiki"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/simdb"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// TestWikiEndToEnd drives the full Figure 5 flow ①–⑧ in-package:
// client → enclosed mux ○B → channel → trusted glue ○A → channel →
// enclosed pq proxy ○C → Postgres → back out.
func TestWikiEndToEnd(t *testing.T) {
	for _, kind := range core.Backends {
		t.Run(kind.String(), func(t *testing.T) {
			b := core.NewBuilder(kind)
			b.Package(core.PackageSpec{
				Name:    "main",
				Imports: []string{wiki.MuxPkg, wiki.PqPkg},
				Vars:    map[string]int{"db_password": 32},
				Origin:  "app",
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
				t.Fatal(err)
			}
			db, err := simdb.Start(prog.Net())
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			db.Put("home", []byte("figure five, end to end"))

			const port = 8095
			srvReady := make(chan struct{})
			proxyReady := make(chan struct{})
			reqCh := core.NewHandoff[wiki.Request](4)
			queryCh := core.NewHandoff[wiki.Query](4)

			request := func(raw string) string {
				conn, err := prog.Net().Dial(simnet.HostIP(10, 0, 0, 99),
					simnet.Addr{Host: core.DefaultHostIP, Port: port})
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				if _, err := conn.Write([]byte(raw)); err != nil {
					t.Fatal(err)
				}
				var resp []byte
				buf := make([]byte, 32*1024)
				for {
					n, err := conn.Read(buf)
					resp = append(resp, buf[:n]...)
					if err != nil {
						break
					}
				}
				return string(resp)
			}

			err = prog.Run(func(task *core.Task) error {
				glue := task.Go("glue", func(task *core.Task) error {
					return wiki.Glue(task, reqCh, queryCh)
				})
				proxy := task.Go("proxy", func(task *core.Task) error {
					_, err := prog.MustEnclosure("db-proxy").Call(task,
						wiki.ProxyArgs{Queries: queryCh, Ready: proxyReady})
					return err
				})
				srv := task.Go("server", func(task *core.Task) error {
					_, err := prog.MustEnclosure("http-server").Call(task,
						wiki.ServeArgs{Port: port, Reqs: reqCh, Ready: srvReady})
					return err
				})
				<-srvReady
				<-proxyReady

				if got := request("GET /view/home HTTP/1.1\r\n\r\n"); !strings.Contains(got, "figure five, end to end") {
					t.Errorf("view home: %.120q", got)
				}
				if got := request("GET /view/ghost HTTP/1.1\r\n\r\n"); !strings.Contains(got, "page not found") {
					t.Errorf("view missing page: %.120q", got)
				}
				body := "updated body"
				save := fmt.Sprintf("POST /save/home HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
				if got := request(save); !strings.Contains(got, "saved") {
					t.Errorf("save: %.120q", got)
				}
				if got := request("GET /view/home HTTP/1.1\r\n\r\n"); !strings.Contains(got, "updated body") {
					t.Errorf("view after save: %.120q", got)
				}
				request("GET /quit HTTP/1.1\r\n\r\n")

				if err := srv.Join(task); err != nil {
					return err
				}
				if err := glue.Join(task); err != nil {
					return err
				}
				return proxy.Join(task)
			})
			if err != nil {
				t.Fatal(err)
			}
			// The save went through the proxy to Postgres.
			if v, ok := db.Get("home"); !ok || string(v) != "updated body" {
				t.Errorf("postgres row = %q, %v", v, ok)
			}
		})
	}
}
