// Wiki: the paper's Figure 5 usability study as an application.
//
// A wiki stores pages in Postgres. The HTTP server (gorilla/mux and its
// 44 public dependencies) runs in enclosure ○B — sockets only, no
// connects; the lib/pq driver runs in enclosure ○C — a database proxy
// whose connect(2) is allow-listed to the Postgres address. Trusted
// glue ○A validates queries and renders HTML. Neither enclosure can
// read the templates or the database password.
//
//	go run ./examples/wiki [-backend mpk|vtx|baseline]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"github.com/litterbox-project/enclosure"
	"github.com/litterbox-project/enclosure/internal/apps/wiki"
	"github.com/litterbox-project/enclosure/internal/simdb"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

func request(prog *enclosure.Program, port uint16, raw string) (string, error) {
	conn, err := prog.Net().Dial(simnet.HostIP(10, 0, 0, 99), simnet.Addr{Host: enclosure.DefaultHostIP(), Port: port})
	if err != nil {
		return "", err
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(raw)); err != nil {
		return "", err
	}
	var resp []byte
	buf := make([]byte, 32*1024)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			resp = append(resp, buf[:n]...)
		}
		if err != nil {
			break
		}
	}
	_, body, _ := strings.Cut(string(resp), "\r\n\r\n")
	return body, nil
}

func main() {
	backendName := flag.String("backend", "vtx", "baseline|mpk|vtx")
	flag.Parse()
	backend := map[string]enclosure.Backend{
		"baseline": enclosure.Baseline, "mpk": enclosure.MPK, "vtx": enclosure.VTX,
	}[*backendName]

	b := enclosure.New(backend)
	b.Package(enclosure.PackageSpec{
		Name:    "main",
		Imports: []string{wiki.MuxPkg, wiki.PqPkg},
		Vars:    map[string]int{"db_password": 32, "page_templates": 4096},
		Origin:  "app", LOC: 120,
	})
	wiki.Register(b)
	b.Enclosure("http-server", "main", wiki.PolicyServer,
		func(t *enclosure.Task, args ...enclosure.Value) ([]enclosure.Value, error) {
			return t.Call(wiki.MuxPkg, "Serve", args[0])
		}, wiki.MuxPkg)
	b.Enclosure("db-proxy", "main", wiki.PolicyProxy,
		func(t *enclosure.Task, args ...enclosure.Value) ([]enclosure.Value, error) {
			return t.Call(wiki.PqPkg, "Proxy", args[0])
		}, wiki.PqPkg)
	prog, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	db, err := simdb.Start(prog.Net())
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	db.Put("welcome", []byte("Welcome to the enclosure wiki. Everything public is boxed."))

	const port = 8090
	srvReady := make(chan struct{})
	proxyReady := make(chan struct{})
	reqCh := enclosure.NewHandoff[wiki.Request](16)
	queryCh := enclosure.NewHandoff[wiki.Query](16)

	err = prog.Run(func(t *enclosure.Task) error {
		glue := t.Go("glue", func(t *enclosure.Task) error { return wiki.Glue(t, reqCh, queryCh) })
		proxy := t.Go("db-proxy", func(t *enclosure.Task) error {
			_, err := prog.MustEnclosure("db-proxy").Call(t, wiki.ProxyArgs{Queries: queryCh, Ready: proxyReady})
			return err
		})
		srv := t.Go("http-server", func(t *enclosure.Task) error {
			_, err := prog.MustEnclosure("http-server").Call(t, wiki.ServeArgs{Port: port, Reqs: reqCh, Ready: srvReady})
			return err
		})
		<-srvReady
		<-proxyReady

		fmt.Printf("wiki on %s backend —\n\n", backend)
		body, err := request(prog, port, "GET /view/welcome HTTP/1.1\r\n\r\n")
		if err != nil {
			return err
		}
		fmt.Println("GET /view/welcome ->", body)

		save := "POST /save/golang HTTP/1.1\r\nContent-Length: 27\r\n\r\nenclosures, but for gophers"
		body, err = request(prog, port, save)
		if err != nil {
			return err
		}
		fmt.Println("POST /save/golang ->", body)

		body, err = request(prog, port, "GET /view/golang HTTP/1.1\r\n\r\n")
		if err != nil {
			return err
		}
		fmt.Println("GET /view/golang  ->", body)

		if _, err := request(prog, port, "GET /quit HTTP/1.1\r\n\r\n"); err != nil {
			return err
		}
		if err := srv.Join(t); err != nil {
			return err
		}
		if err := glue.Join(t); err != nil {
			return err
		}
		if err := proxy.Join(t); err != nil {
			return err
		}

		if v, ok := db.Get("golang"); ok {
			fmt.Printf("\nPostgres row 'golang' = %q (written only via the allow-listed proxy)\n", v)
		}
		c := prog.Counters().Snapshot()
		fmt.Printf("hardware: %d switches, %d syscalls, %d faults\n", c.Switches, c.Syscalls, c.Faults)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
