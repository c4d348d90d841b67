package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// The ownership tests: a program's simulated goroutines take turns on
// its run token (run.go). CI runs them under -race with -count=20.

// ownedProgram builds a program whose "box" enclosure may use the
// network and run lib's functions; lib.Work charges every kind of cost
// a simulated goroutine can.
func ownedProgram(t testing.TB, kind BackendKind, opts ...Option) *Program {
	t.Helper()
	b := NewBuilder(kind, opts...)
	b.Package(PackageSpec{Name: "main", Imports: []string{"lib"}, Vars: map[string]int{"slots": 64}})
	b.Package(PackageSpec{
		Name: "lib",
		Funcs: map[string]Func{
			"Work": func(t *Task, args ...Value) ([]Value, error) {
				r := t.Alloc(64)
				t.WriteBytes(r, []byte("owned"))
				_ = t.ReadBytes(r)
				t.Store64(r.Addr, 7)
				_ = t.Load64(r.Addr)
				t.Compute(100)
				t.Free(r)
				return nil, nil
			},
		},
	})
	b.Enclosure("box", "main", "sys:net,io", func(t *Task, args ...Value) ([]Value, error) {
		if len(args) > 0 {
			return args[0].(func(*Task) ([]Value, error))(t)
		}
		return t.Call("lib", "Work")
	}, "lib")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// hammer is one simulated goroutine's share of the charging surface:
// memory, compute, allocation, enclosure calls, sequential syscalls
// and ring submit/flush/reap, each slot on its own 8 bytes.
func hammer(t *Task, slot int) error {
	slots, err := t.Prog().VarRef("main", "slots")
	if err != nil {
		return err
	}
	box := t.Prog().MustEnclosure("box")
	addr := slots.Addr + mem.Addr(8*slot)
	for i := 0; i < 50; i++ {
		t.Store64(addr, uint64(i))
		_ = t.Load64(addr)
		t.Compute(10)
		if _, err := box.Call(t); err != nil {
			return err
		}
		t.Syscall(kernel.NrGetpid)
		t.SubmitSyscall(1, kernel.NrGetuid)
		t.SubmitRuntimeSyscall(2, kernel.NrClockGettime, uint64(addr))
		_ = t.ReapSyscalls()
		_ = t.FlushSyscalls()
	}
	return nil
}

// TestOwnershipTotalsMatchSequential: a root task and two Task.Go
// children hammer the charging surface at once, and the program's
// clock and counters end where a sequential run of the same work ends.
func TestOwnershipTotalsMatchSequential(t *testing.T) {
	for _, kind := range []BackendKind{MPK, VTX} {
		t.Run(kind.String(), func(t *testing.T) {
			run := func(concurrent bool) (int64, hw.CounterSnapshot) {
				prog := ownedProgram(t, kind, WithSyscallRing(4))
				err := prog.Run(func(task *Task) error {
					var hs []*Handle
					for c := 1; c <= 2; c++ {
						h := task.Go(fmt.Sprintf("child%d", c), func(ct *Task) error { return hammer(ct, c) })
						if !concurrent {
							if err := h.Join(task); err != nil {
								return err
							}
						}
						hs = append(hs, h)
					}
					if err := hammer(task, 0); err != nil {
						return err
					}
					for _, h := range hs {
						if err := h.Join(task); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return prog.Clock().Now(), prog.Counters().Snapshot()
			}
			seqNs, seqC := run(false)
			parNs, parC := run(true)
			if parNs != seqNs || parC != seqC {
				t.Fatalf("concurrent run %d ns %v\nsequential run %d ns %v", parNs, parC, seqNs, seqC)
			}
			if seqC.Syscalls == 0 || seqC.Switches == 0 || seqC.RingBatches == 0 {
				t.Fatalf("the hammer charged too little: %v", seqC)
			}
		})
	}
}

// within fails the test unless f returns within a generous bound: a
// blocking point that kept the run token would deadlock instead.
func within(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("%s: deadlock: a blocked goroutine kept the run token", what)
	}
}

// inBox runs f inside the "box" enclosure on t, so the blocking point
// under test is reached while t holds the run token.
func inBox(t *Task, f func(*Task) error) error {
	_, err := t.Prog().MustEnclosure("box").Call(t, func(t *Task) ([]Value, error) { return nil, f(t) })
	return err
}

// sysOK issues a syscall and turns a failing errno into an error.
func sysOK(t *Task, nr kernel.Nr, args ...uint64) (uint64, error) {
	ret, errno := t.Syscall(nr, args...)
	if errno != kernel.OK {
		return 0, fmt.Errorf("%s: %v", nr.Name(), errno)
	}
	return ret, nil
}

// TestBlockingPointsLetSiblingsRun: a simulated goroutine blocked at
// each blocking point — kernel accept, recv on an empty socket, send
// into a full one, Join, a hand-off, Yield — lets its siblings run,
// inside an enclosure on MPK and VTX.
func TestBlockingPointsLetSiblingsRun(t *testing.T) {
	for _, kind := range []BackendKind{MPK, VTX} {
		t.Run(kind.String(), func(t *testing.T) {
			const port = 7070
			// listen binds a listening socket on port in t's process.
			listen := func(t *Task) (uint64, error) {
				s, err := sysOK(t, kernel.NrSocket)
				if err != nil {
					return 0, err
				}
				if _, err := sysOK(t, kernel.NrBind, s, uint64(DefaultHostIP), port); err != nil {
					return 0, err
				}
				_, err = sysOK(t, kernel.NrListen, s)
				return s, err
			}
			// dial connects a fresh socket to the listener.
			dial := func(t *Task) (uint64, error) {
				c, err := sysOK(t, kernel.NrSocket)
				if err != nil {
					return 0, err
				}
				_, err = sysOK(t, kernel.NrConnect, c, uint64(DefaultHostIP), port)
				return c, err
			}

			t.Run("accept-recv", func(t *testing.T) {
				prog := ownedProgram(t, kind)
				within(t, "accept and recv", func() error {
					return prog.Run(func(task *Task) error {
						return inBox(task, func(task *Task) error {
							buf := task.Alloc(64)
							s, err := listen(task)
							if err != nil {
								return err
							}
							// The sibling can connect only if the accept below
							// released the token; it then waits before sending,
							// so the recv finds an empty socket and waits too.
							h := task.Go("client", func(ct *Task) error {
								return inBox(ct, func(ct *Task) error {
									c, err := dial(ct)
									if err != nil {
										return err
									}
									ct.Compute(1000)
									src := ct.NewString("ping")
									_, err = sysOK(ct, kernel.NrSend, c, uint64(src.Addr), 4)
									return err
								})
							})
							conn, err := sysOK(task, kernel.NrAccept, s)
							if err != nil {
								return err
							}
							n, err := sysOK(task, kernel.NrRecv, conn, uint64(buf.Addr), buf.Size)
							if err != nil {
								return err
							}
							if got := task.ReadString(buf.Slice(0, n)); got != "ping" {
								return fmt.Errorf("recv %q", got)
							}
							return h.Join(task)
						})
					})
				})
			})

			t.Run("full-send", func(t *testing.T) {
				prog := ownedProgram(t, kind)
				const total = 320 << 10 // more than one stream buffer
				within(t, "send into a full buffer", func() error {
					return prog.Run(func(task *Task) error {
						return inBox(task, func(task *Task) error {
							src := task.Alloc(total)
							s, err := listen(task)
							if err != nil {
								return err
							}
							h := task.Go("reader", func(ct *Task) error {
								return inBox(ct, func(ct *Task) error {
									dst := ct.Alloc(64 << 10)
									c, err := dial(ct)
									if err != nil {
										return err
									}
									for got := uint64(0); got < total; {
										n, err := sysOK(ct, kernel.NrRecv, c, uint64(dst.Addr), dst.Size)
										if err != nil {
											return err
										}
										got += n
									}
									return nil
								})
							})
							conn, err := sysOK(task, kernel.NrAccept, s)
							if err != nil {
								return err
							}
							n, err := sysOK(task, kernel.NrSend, conn, uint64(src.Addr), total)
							if err != nil || n != total {
								return fmt.Errorf("send %d of %d: %v", n, total, err)
							}
							return h.Join(task)
						})
					})
				})
			})

			t.Run("join-handoff", func(t *testing.T) {
				prog := ownedProgram(t, kind)
				within(t, "join and hand-off", func() error {
					return prog.Run(func(task *Task) error {
						req, rep := NewHandoff[int](0), NewHandoff[int](0)
						return inBox(task, func(task *Task) error {
							h := task.Go("echo", func(ct *Task) error {
								for {
									v, ok := req.Recv(ct)
									if !ok {
										return nil
									}
									if _, err := ct.Call("lib", "Work"); err != nil {
										return err
									}
									rep.Send(ct, v+1)
								}
							})
							for i := 0; i < 10; i++ {
								req.Send(task, i)
								if v, _ := rep.Recv(task); v != i+1 {
									return fmt.Errorf("echo %d -> %d", i, v)
								}
							}
							req.Close(task)
							return h.Join(task)
						})
					})
				})
			})

			t.Run("yield", func(t *testing.T) {
				prog := ownedProgram(t, kind)
				s, err := prog.NewScheduler()
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					s.Spawn(fmt.Sprintf("thread%d", i), func(task *Task) error {
						return inBox(task, func(task *Task) error {
							for j := 0; j < 5; j++ {
								if _, err := task.Call("lib", "Work"); err != nil {
									return err
								}
								task.Yield()
							}
							return nil
						})
					})
				}
				within(t, "yield", s.Run)
			})
		})
	}
}

// TestHandoffRoundTripAllocs pins a hand-off round trip — a request
// from a task inside an entry point to a sibling, which charges the
// clock and replies — at zero allocations. The hand-offs are
// unbuffered, so every Send waits for its Recv: whichever side gets
// there first parks, releasing and retaking the run token, on the
// Send path as well as the Recv path.
func TestHandoffRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on synchronisation")
	}
	prog := ownedProgram(t, MPK)
	err := prog.Run(func(task *Task) error {
		req, rep := NewHandoff[int](0), NewHandoff[int](0)
		h := task.Go("echo", func(ct *Task) error {
			for {
				v, ok := req.Recv(ct)
				if !ok {
					return nil
				}
				ct.Compute(1)
				rep.Send(ct, v)
			}
		})
		took := task.enter()
		allocs := testing.AllocsPerRun(200, func() {
			req.Send(task, 1)
			rep.Recv(task)
		})
		task.leave(took)
		req.Close(task)
		if err := h.Join(task); err != nil {
			return err
		}
		if allocs != 0 {
			return fmt.Errorf("hand-off round trip allocates %.1f times", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkHandoffRoundTrip measures one switch pair: a request from a
// task inside an entry point to a sibling, which charges the clock and
// replies, over two unbuffered hand-offs, on one host thread.
func BenchmarkHandoffRoundTrip(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prog := ownedProgram(b, MPK)
	err := prog.Run(func(task *Task) error {
		req, rep := NewHandoff[int](0), NewHandoff[int](0)
		h := task.Go("echo", func(ct *Task) error {
			for {
				v, ok := req.Recv(ct)
				if !ok {
					return nil
				}
				ct.Compute(1)
				rep.Send(ct, v)
			}
		})
		took := task.enter()
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			req.Send(task, 1)
			rep.Recv(task)
		}
		b.StopTimer()
		task.leave(took)
		req.Close(task)
		return h.Join(task)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// The driver tests: a simulated goroutine is a coroutine, and the host
// goroutine that blocks or wakes it drives the program (run.go). CI
// runs them under -race with -count=20.

// TestDriverInProgramNetwork: a server and a client task of one
// program talk over the simulated network, each waiting in the kernel
// in turn. A coroutine that blocked its host goroutine on the network
// would stall the root task driving both, and deadlock.
func TestDriverInProgramNetwork(t *testing.T) {
	const port = 7072
	prog := ownedProgram(t, MPK)
	within(t, "client and server", func() error {
		return prog.Run(func(task *Task) error {
			server := task.Go("server", func(st *Task) error {
				return inBox(st, func(st *Task) error {
					buf := st.Alloc(64)
					s, err := sysOK(st, kernel.NrSocket)
					if err != nil {
						return err
					}
					if _, err := sysOK(st, kernel.NrBind, s, uint64(DefaultHostIP), port); err != nil {
						return err
					}
					if _, err := sysOK(st, kernel.NrListen, s); err != nil {
						return err
					}
					conn, err := sysOK(st, kernel.NrAccept, s)
					if err != nil {
						return err
					}
					for i := 0; i < 3; i++ {
						n, err := sysOK(st, kernel.NrRecv, conn, uint64(buf.Addr), buf.Size)
						if err != nil {
							return err
						}
						if _, err := sysOK(st, kernel.NrSend, conn, uint64(buf.Addr), n); err != nil {
							return err
						}
					}
					return nil
				})
			})
			client := task.Go("client", func(ct *Task) error {
				return inBox(ct, func(ct *Task) error {
					buf := ct.Alloc(64)
					c, err := sysOK(ct, kernel.NrSocket)
					if err != nil {
						return err
					}
					if _, err := sysOK(ct, kernel.NrConnect, c, uint64(DefaultHostIP), port); err != nil {
						return err
					}
					for i := 0; i < 3; i++ {
						msg := ct.NewString(fmt.Sprintf("ping%d", i))
						if _, err := sysOK(ct, kernel.NrSend, c, uint64(msg.Addr), msg.Size); err != nil {
							return err
						}
						n, err := sysOK(ct, kernel.NrRecv, c, uint64(buf.Addr), buf.Size)
						if err != nil {
							return err
						}
						if got := ct.ReadString(buf.Slice(0, n)); got != fmt.Sprintf("ping%d", i) {
							return fmt.Errorf("echo %d read %q", i, got)
						}
					}
					return nil
				})
			})
			if err := client.Join(task); err != nil {
				return err
			}
			return server.Join(task)
		})
	})
}

// TestDriverWokenFromHost: a task waits for a reply from a host
// goroutine outside the program, simdb-style, while the root task that
// drives the program has nothing else to run and parks. The host
// goroutine's write wakes the task; the task's exit then wakes the
// root's Join.
func TestDriverWokenFromHost(t *testing.T) {
	addr := simnet.Addr{Host: simnet.HostIP(10, 0, 0, 9), Port: 5433}
	prog := ownedProgram(t, MPK)
	ln, err := prog.Net().Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		served <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			buf := make([]byte, 64)
			n, err := conn.Read(buf)
			if err != nil {
				return err
			}
			// Let the root park first: nothing in the program is
			// ready until this write.
			time.Sleep(time.Millisecond)
			_, err = conn.Write(append([]byte("re:"), buf[:n]...))
			return err
		}()
	}()
	within(t, "wake from a host goroutine", func() error {
		return prog.Run(func(task *Task) error {
			h := task.Go("query", func(ct *Task) error {
				return inBox(ct, func(ct *Task) error {
					buf := ct.Alloc(64)
					c, err := sysOK(ct, kernel.NrSocket)
					if err != nil {
						return err
					}
					if _, err := sysOK(ct, kernel.NrConnect, c, uint64(addr.Host), uint64(addr.Port)); err != nil {
						return err
					}
					q := ct.NewString("GET k")
					if _, err := sysOK(ct, kernel.NrSend, c, uint64(q.Addr), q.Size); err != nil {
						return err
					}
					n, err := sysOK(ct, kernel.NrRecv, c, uint64(buf.Addr), buf.Size)
					if err != nil {
						return err
					}
					if got := ct.ReadString(buf.Slice(0, n)); got != "re:GET k" {
						return fmt.Errorf("reply %q", got)
					}
					return nil
				})
			})
			return h.Join(task)
		})
	})
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestDriverFaultReachesJoin: a protection fault inside a coroutine
// ends its body, and Join returns the *litterbox.Fault.
func TestDriverFaultReachesJoin(t *testing.T) {
	prog := ownedProgram(t, MPK)
	slots, err := prog.VarRef("main", "slots")
	if err != nil {
		t.Fatal(err)
	}
	err = prog.Run(func(task *Task) error {
		h := task.Go("intruder", func(ct *Task) error {
			return inBox(ct, func(ct *Task) error {
				_ = ct.Load64(slots.Addr) // outside the box's view
				return errors.New("a read outside the view did not fault")
			})
		})
		var fault *litterbox.Fault
		if err := h.Join(task); !errors.As(err, &fault) || fault.Op != "read" {
			return fmt.Errorf("Join: %v, want the child's read fault", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNetworkWaitWakeAllocs pins a network round trip between two
// tasks of one program at zero allocations: the root task's send wakes
// a sibling waiting in recv, and the root's own recv waits, driving the
// sibling, until the echo wakes it.
func TestNetworkWaitWakeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on synchronisation")
	}
	prog := ownedProgram(t, MPK)
	a, b := simnet.Pair()
	fa, fb := uint64(prog.Proc().InjectConn(a)), uint64(prog.Proc().InjectConn(b))
	err := prog.Run(func(task *Task) error {
		h := task.Go("echo", func(ct *Task) error {
			buf := ct.Alloc(8)
			for {
				n, err := sysOK(ct, kernel.NrRecv, fb, uint64(buf.Addr), buf.Size)
				if err != nil || n == 0 {
					return err
				}
				if _, err := sysOK(ct, kernel.NrSend, fb, uint64(buf.Addr), n); err != nil {
					return err
				}
			}
		})
		buf := task.Alloc(8)
		took := task.enter()
		allocs := testing.AllocsPerRun(200, func() {
			task.Syscall(kernel.NrSend, fa, uint64(buf.Addr), 1)
			task.Syscall(kernel.NrRecv, fa, uint64(buf.Addr), buf.Size)
		})
		task.leave(took)
		if _, err := sysOK(task, kernel.NrClose, fa); err != nil {
			return err
		}
		if err := h.Join(task); err != nil {
			return err
		}
		if allocs != 0 {
			return fmt.Errorf("network wait-and-wake round trip allocates %.1f times", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
