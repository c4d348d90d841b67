package attacks

import (
	"errors"
	"fmt"
	"strings"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// --- Scenario 5: malicious Django clone -------------------------------
//
// §6.5: "A similar issue arose with malicious clones of the Python
// Django framework. To protect against these, we took an approach
// similar to the one used in FastHTTP with secured callbacks." The
// framework legitimately needs sockets (it *is* the web server), so a
// pure syscall filter cannot stop it; instead the whole framework runs
// enclosed with socket-only rights and an empty connect allowlist,
// while application state (SECRET_KEY, the database) stays with trusted
// code behind a channel.
//
// The infected clone tries, per request, to (1) read the application's
// SECRET_KEY from memory, (2) read the on-disk credential store, and
// (3) phone home. All three fault; serving pages keeps working until
// the first malicious act.

// DjangoPort is where the framework listens.
const DjangoPort = 8000

// DjangoPolicy is the secured-callback enclosure policy.
const DjangoPolicy = "sys:net,io; connect:none"

// djangoRequest crosses from the enclosed framework to trusted code.
type djangoRequest struct {
	Path string
	Resp core.Ref
	Done *core.Handoff[int]
}

// djangoServe is the (possibly infected) framework body: an accept
// loop with routing, secured callbacks for the application logic, and
// — in the infected variant — the malicious payload per request.
func djangoServe(evil bool, reqs *core.Handoff[djangoRequest]) core.Func {
	return func(t *core.Task, args ...core.Value) ([]core.Value, error) {
		ready := args[0].(chan struct{})
		sock, errno := t.Syscall(kernel.NrSocket)
		if errno != kernel.OK {
			return nil, fmt.Errorf("django: socket: %v", errno)
		}
		if _, errno = t.Syscall(kernel.NrBind, sock, uint64(core.DefaultHostIP), DjangoPort); errno != kernel.OK {
			return nil, fmt.Errorf("django: bind: %v", errno)
		}
		if _, errno = t.Syscall(kernel.NrListen, sock); errno != kernel.OK {
			return nil, fmt.Errorf("django: listen: %v", errno)
		}
		close(ready)

		buf := t.Alloc(4096)
		resp := t.Alloc(8192)
		done := core.NewHandoff[int](1)
		served := 0
		for {
			conn, errno := t.Syscall(kernel.NrAccept, sock)
			if errno != kernel.OK {
				break
			}
			n, errno := t.Syscall(kernel.NrRecv, conn, uint64(buf.Addr), buf.Size)
			if errno != kernel.OK {
				t.Syscall(kernel.NrShutdown, conn)
				continue
			}
			raw := t.ReadString(buf.Slice(0, n))
			path := "/"
			if parts := strings.SplitN(raw, " ", 3); len(parts) >= 2 {
				path = parts[1]
			}

			if evil {
				// (1) scrape the application's SECRET_KEY from memory.
				if key, err := t.Prog().VarRef("main", "SECRET_KEY"); err == nil {
					_ = t.ReadBytes(key) // faults: main is not in the view
				}
			}

			reqs.Send(t, djangoRequest{Path: path, Resp: resp, Done: done})
			respLen, _ := done.Recv(t)

			hdr := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", respLen)
			hdrRef := resp.Slice(uint64(respLen), uint64(len(hdr)))
			t.WriteBytes(hdrRef, []byte(hdr))
			t.Syscall(kernel.NrSend, conn, uint64(hdrRef.Addr), uint64(len(hdr)))
			t.Syscall(kernel.NrSend, conn, uint64(resp.Addr), uint64(respLen))
			t.Syscall(kernel.NrShutdown, conn)
			served++
			if path == "/quit" {
				t.Syscall(kernel.NrShutdown, sock)
				break
			}
		}
		return []core.Value{served}, nil
	}
}

// RunDjangoClone executes the Django-clone scenario. protected selects
// the secured-callback enclosure; evil grafts the per-request theft on.
func RunDjangoClone(kind core.BackendKind, protected, evil bool) (Report, error) {
	policy := DjangoPolicy
	if !protected {
		policy = "main:RWX; sys:all"
	}
	rep, _, err := exerciseDjangoClone(kind, protected, evil, policy)
	return rep, err
}

// exerciseDjangoClone is the policy-parameterized form backing both
// the attack report and the privilege analyzer's audit mining.
func exerciseDjangoClone(kind core.BackendKind, protected, evil bool, policy string, opts ...core.Option) (Report, *core.Program, error) {
	rep := Report{Scenario: "django-clone", Backend: kind, Protected: protected}

	b := core.NewBuilder(kind, opts...)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{"django"},
		Vars:    map[string]int{"SECRET_KEY": 50},
		Origin:  "app", LOC: 60,
	})
	reqs := core.NewHandoff[djangoRequest](8)
	b.Package(core.PackageSpec{
		Name: "django", Origin: "public", LOC: 350000, Stars: 70000,
		Funcs: map[string]core.Func{"Serve": djangoServe(evil, reqs)},
	})
	b.Enclosure("django", "main", policy,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call("django", "Serve", args...)
		}, "django")
	prog, err := b.Build()
	if err != nil {
		return rep, nil, err
	}
	if err := SeedVictim(prog); err != nil {
		return rep, prog, err
	}

	ready := make(chan struct{})
	legit := make(chan bool, 4)
	err = prog.Run(func(t *core.Task) error {
		// Trusted application logic behind the hand-off.
		handler := t.Go("app", func(t *core.Task) error {
			for {
				req, ok := reqs.Recv(t)
				if !ok {
					return nil
				}
				html := fmt.Sprintf("<h1>django says hi: %s</h1>", req.Path)
				t.WriteBytes(req.Resp.Slice(0, uint64(len(html))), []byte(html))
				req.Done.Send(t, len(html))
			}
		})
		srv := t.Go("django", func(t *core.Task) error {
			_, err := prog.MustEnclosure("django").Call(t, ready)
			return err
		})
		<-ready

		key, err := prog.VarRef("main", "SECRET_KEY")
		if err != nil {
			return err
		}
		t.WriteBytes(key, []byte("django-insecure-0xDEADBEEF"))

		// The load generator runs at host level: if the infected
		// framework faults mid-request the connection just dies.
		clientDone := make(chan struct{})
		go func() {
			defer close(clientDone)
			for _, path := range []string{"/polls", "/quit"} {
				conn, err := prog.Net().Dial(simnet.HostIP(10, 0, 0, 99),
					simnet.Addr{Host: core.DefaultHostIP, Port: DjangoPort})
				if err != nil {
					return
				}
				fmt.Fprintf(conn, "GET %s HTTP/1.1\r\n\r\n", path)
				buf := make([]byte, 16*1024)
				var got []byte
				for {
					n, err := conn.Read(buf)
					got = append(got, buf[:n]...)
					if err != nil {
						break
					}
				}
				conn.Close()
				legit <- strings.Contains(string(got), "django says hi")
			}
		}()

		srvErr := srv.Join(t)
		if srvErr == nil {
			<-clientDone // collect the verdicts of both requests
		}
		reqs.Close(t)
		if herr := handler.Join(t); herr != nil && srvErr == nil {
			srvErr = herr
		}
		return srvErr
	})
	for {
		select {
		case ok := <-legit:
			if ok {
				rep.LegitOK = true
			}
			continue
		default:
		}
		break
	}
	var fault *litterbox.Fault
	if errors.As(err, &fault) {
		rep.Blocked = true
		rep.FaultOp = fault.Op + ":" + fault.Detail()
	} else if err != nil {
		return rep, prog, err
	}
	return rep, prog, nil
}
