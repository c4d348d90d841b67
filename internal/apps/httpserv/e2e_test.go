package httpserv_test

import (
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// TestServeEndToEnd drives the net/http-like server with the enclosed
// handler through real connections.
func TestServeEndToEnd(t *testing.T) {
	for _, kind := range core.Backends {
		t.Run(kind.String(), func(t *testing.T) {
			prog := buildServer(t, kind, httpserv.HandlerBody)
			const port = 8085
			ready := make(chan struct{})
			err := prog.Run(func(task *core.Task) error {
				srv := task.Go("server", func(task *core.Task) error {
					_, err := task.Call(httpserv.Pkg, "Serve", httpserv.ServeArgs{
						Port:    port,
						Handler: prog.MustEnclosure("handler"),
						Ready:   ready,
					})
					return err
				})
				<-ready
				for i, path := range []string{"/", "/index.html", "/quit"} {
					conn, err := prog.Net().Dial(simnet.HostIP(10, 0, 0, 50),
						simnet.Addr{Host: core.DefaultHostIP, Port: port})
					if err != nil {
						return err
					}
					if _, err := conn.Write([]byte("GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n")); err != nil {
						return err
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
					conn.Close()
					s := string(resp)
					if !strings.HasPrefix(s, "HTTP/1.1 200 OK") {
						t.Fatalf("request %d: %.60q", i, s)
					}
					_, body, _ := strings.Cut(s, "\r\n\r\n")
					if len(body) != httpserv.PageSize13KB {
						t.Fatalf("request %d: body %dB", i, len(body))
					}
				}
				res, err := srv.Join(task), error(nil)
				_ = err
				return res
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
