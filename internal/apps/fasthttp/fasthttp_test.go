package fasthttp_test

import (
	"errors"
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure/internal/apps/fasthttp"
	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

func buildApp(t *testing.T, kind core.BackendKind, serverBody core.Func) *core.Program {
	t.Helper()
	b := core.NewBuilder(kind)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{fasthttp.Pkg},
		Vars:    map[string]int{"db_password": 64},
		Origin:  "app",
	})
	fasthttp.Register(b)
	if serverBody == nil {
		serverBody = func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call(fasthttp.Pkg, "Serve", args[0])
		}
	}
	b.Enclosure("server", "main", fasthttp.Policy, serverBody, fasthttp.Pkg)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestServeEndToEnd drives the secured-callback pattern: the enclosed
// server forwards over the channel, the trusted handler answers, the
// client sees the page.
func TestServeEndToEnd(t *testing.T) {
	for _, kind := range core.Backends {
		t.Run(kind.String(), func(t *testing.T) {
			prog := buildApp(t, kind, nil)
			page := httpserv.StaticPage()
			ready := make(chan struct{})
			reqCh := core.NewHandoff[fasthttp.Request](4)
			const port = 9000
			err := prog.Run(func(task *core.Task) error {
				h := task.Go("handler", func(task *core.Task) error {
					return fasthttp.HandleLoop(task, reqCh, page)
				})
				srv := task.Go("server", func(task *core.Task) error {
					_, err := prog.MustEnclosure("server").Call(task, fasthttp.ServeArgs{
						Port: port, Reqs: reqCh, Ready: ready,
					})
					return err
				})
				<-ready
				for i := 0; i < 3; i++ {
					conn, err := prog.Net().Dial(simnet.HostIP(10, 0, 0, 9), simnet.Addr{Host: core.DefaultHostIP, Port: port})
					if err != nil {
						return err
					}
					if _, err := conn.Write([]byte("GET /x HTTP/1.1\r\n\r\n")); err != nil {
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
					if !strings.HasPrefix(string(resp), "HTTP/1.1 200 OK") {
						t.Fatalf("bad response %.40q", resp)
					}
					if !strings.HasSuffix(string(resp), string(page[len(page)-16:])) {
						t.Fatal("page payload truncated")
					}
				}
				// Shut down.
				conn, _ := prog.Net().Dial(simnet.HostIP(10, 0, 0, 9), simnet.Addr{Host: core.DefaultHostIP, Port: port})
				if conn != nil {
					_, _ = conn.Write([]byte("GET /quit HTTP/1.1\r\n\r\n"))
					for {
						if _, err := conn.Read(buf()); err != nil {
							break
						}
					}
					conn.Close()
				}
				if err := srv.Join(task); err != nil {
					return err
				}
				return h.Join(task)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func buf() []byte { return make([]byte, 32*1024) }

// TestServerCannotAccessApplicationSecrets: the enclosed FastHTTP server
// has no access to main's database password and cannot open files.
func TestServerCannotAccessApplicationSecrets(t *testing.T) {
	for _, kind := range []core.BackendKind{core.MPK, core.VTX} {
		t.Run(kind.String(), func(t *testing.T) {
			for name, evil := range map[string]core.Func{
				"read-password": func(task *core.Task, args ...core.Value) ([]core.Value, error) {
					pw, err := task.Prog().VarRef("main", "db_password")
					if err != nil {
						return nil, err
					}
					_ = task.ReadBytes(pw)
					return nil, nil
				},
				"open-file": func(task *core.Task, args ...core.Value) ([]core.Value, error) {
					p := task.NewString("/etc/shadow")
					task.Syscall(kernel.NrOpen, uint64(p.Addr), p.Size, uint64(kernel.ORdonly))
					return nil, nil
				},
				"mmap": func(task *core.Task, args ...core.Value) ([]core.Value, error) {
					task.Syscall(kernel.NrMmap, 4096)
					return nil, nil
				},
			} {
				prog := buildApp(t, kind, evil)
				err := prog.Run(func(task *core.Task) error {
					_, err := prog.MustEnclosure("server").Call(task, nil)
					return err
				})
				var fault *litterbox.Fault
				if !errors.As(err, &fault) {
					t.Errorf("%s: escaped: %v", name, err)
				}
			}
		})
	}
}

// TestServerMaySocket: the sys:net,io policy must keep FastHTTP's
// legitimate socket operations working.
func TestServerMaySocket(t *testing.T) {
	prog := buildApp(t, core.MPK, func(task *core.Task, args ...core.Value) ([]core.Value, error) {
		if _, errno := task.Syscall(kernel.NrSocket); errno != kernel.OK {
			return nil, errors.New("socket denied")
		}
		return nil, nil
	})
	err := prog.Run(func(task *core.Task) error {
		_, err := prog.MustEnclosure("server").Call(task, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEnclosedLOC(t *testing.T) {
	if got := fasthttp.EnclosedLOC(); got < 350000 || got > 400000 {
		t.Fatalf("EnclosedLOC = %d, paper reports 374K", got)
	}
}
