package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// buildProg builds a minimal program: a main package plus a "res"
// resource package guarded by a no-syscall enclosure.
func buildProg(t *testing.T, kind core.BackendKind, body core.Func) *core.Program {
	t.Helper()
	b := core.NewBuilder(kind)
	b.Package(core.PackageSpec{Name: "main", Origin: "app", LOC: 10})
	b.Package(core.PackageSpec{
		Name:   "res",
		Origin: "app", LOC: 5,
		Consts: map[string][]byte{"page": []byte("resource-bytes")},
	})
	if body != nil {
		b.Enclosure("guard", "main", "sys:none", body, "res")
	}
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// submit admits fn with affinity for worker pref and returns the
// channel its completion error arrives on.
func submit(t *testing.T, e *Engine, pref int, name string, fn Job) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	if err := e.Submit(JobSpec{Pref: pref, Name: name, Fn: fn, Done: func(err error) { done <- err }}); err != nil {
		t.Fatal(err)
	}
	return done
}

func nop(*core.Task) error { return nil }

func TestPoolRunsJobsAcrossWorkers(t *testing.T) {
	prog := buildProg(t, core.MPK, nil)
	e := New(prog, Opts{Workers: 4})
	defer e.Close()

	// Phase 1: four jobs that must run simultaneously — one worker runs
	// one job at a time, so the barrier only clears with every worker
	// engaged.
	arrived := make(chan struct{}, 4)
	release := make(chan struct{})
	var barrier []<-chan error
	for i := 0; i < 4; i++ {
		barrier = append(barrier, submit(t, e, i, fmt.Sprintf("barrier%d", i), func(t *core.Task) error {
			t.Compute(1000)
			arrived <- struct{}{}
			<-release
			return nil
		}))
	}
	for i := 0; i < 4; i++ {
		<-arrived
	}
	close(release)
	for _, done := range barrier {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// Phase 2: a larger batch, checked by totals.
	const jobs = 64
	var ran atomic.Int64
	var batch []<-chan error
	for i := 0; i < jobs; i++ {
		batch = append(batch, submit(t, e, i, fmt.Sprintf("job%d", i), func(t *core.Task) error {
			t.Compute(1000)
			r := t.AllocIn("main", 64)
			t.WriteBytes(r, []byte("hello"))
			ran.Add(1)
			return nil
		}))
	}
	for _, done := range batch {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if ran.Load() != jobs {
		t.Fatalf("ran %d/%d jobs", ran.Load(), jobs)
	}
	ms := e.Metrics()
	if got := TotalRequests(ms); got != jobs+4 {
		t.Fatalf("metrics count %d jobs, want %d", got, jobs+4)
	}
	// The barrier engaged every worker: each executed at least one job
	// and accrued virtual time on its own clock.
	for _, m := range ms {
		if m.Requests == 0 {
			t.Errorf("worker %d executed nothing", m.Worker)
		}
		if m.ClockNs == 0 {
			t.Errorf("worker %d accrued no virtual time", m.Worker)
		}
	}
}

func TestWorkStealing(t *testing.T) {
	prog := buildProg(t, core.Baseline, nil)
	e := New(prog, Opts{Workers: 4, QueueDepth: 128})
	defer e.Close()

	// Flood worker 0's queue. Steals only target *busy* victims, so the
	// gate opens once four jobs are in flight simultaneously: worker 0
	// blocks on its own first job, and the only way to reach four is for
	// every sibling to steal from its queue.
	const jobs = 80
	gate := make(chan struct{})
	var inflight atomic.Int64
	var wg sync.WaitGroup
	wg.Add(jobs)
	for i := 0; i < jobs; i++ {
		// wg.Done runs from Done, after the engine has counted the job;
		// from inside the body it raced the metrics read below.
		err := e.Submit(JobSpec{Name: "flood", Fn: func(t *core.Task) error {
			if inflight.Add(1) == 4 {
				close(gate)
			}
			<-gate
			t.Compute(5000)
			return nil
		}, Done: func(error) { wg.Done() }})
		if err != nil {
			t.Fatalf("submit rejected below queue depth: %v", err)
		}
	}
	wg.Wait()
	ms := e.Metrics()
	if TotalRequests(ms) != jobs {
		t.Fatalf("executed %d/%d", TotalRequests(ms), jobs)
	}
	if TotalSteals(ms) == 0 {
		t.Fatalf("no steals despite single-queue flood:\n%s", MetricsString(ms))
	}
	if MaxQueueDepth(ms) == 0 {
		t.Fatal("queue depth high-water mark never moved")
	}
}

// A thief steals only from a busy victim it is not virtually ahead of.
// A worker whose virtual horizon is past the victim's would start the
// job later than its owner will, so the job waits for its owner until
// the owner has held one job for stallGrace (then anyone may take it,
// or two jobs that rendezvous would deadlock); a worker behind the
// victim takes it at once.
func TestStealRespectsVirtualHorizon(t *testing.T) {
	prog := buildProg(t, core.Baseline, nil)
	e := New(prog, Opts{Workers: 2})
	t.Cleanup(e.Close) // after the wedges' cleanups, which release them

	// Put worker 1 1ms ahead on the virtual timeline. Worker 0 cannot
	// steal it: a victim is eligible only while busy.
	if err := <-submit(t, e, 1, "ahead", func(tk *core.Task) error { tk.Compute(1_000_000); return nil }); err != nil {
		t.Fatal(err)
	}
	// wedge blocks worker pref until released and returns when the
	// wedge started.
	wedge := func(pref int) (started time.Time, release func()) {
		running, hold := make(chan time.Time), make(chan struct{})
		submit(t, e, pref, "wedge", func(*core.Task) error { running <- time.Now(); <-hold; return nil })
		release = sync.OnceFunc(func() { close(hold) })
		t.Cleanup(release)
		return <-running, release
	}
	// queue submits a job behind the wedge and returns when it started.
	queue := func(pref int) time.Time {
		ran := make(chan time.Time, 1)
		submit(t, e, pref, "queued", func(*core.Task) error { ran <- time.Now(); return nil })
		select {
		case at := <-ran:
			return at
		case <-time.After(10 * time.Second):
			t.Fatal("a job queued behind a wedged worker never ran")
		}
		return time.Time{}
	}

	// Worker 0 wedged: idle worker 1 is ahead, so it takes the queued
	// job only once worker 0 has held its job for stallGrace.
	wedged, release := wedge(0)
	if waited := queue(0).Sub(wedged); waited < stallGrace/2 {
		t.Fatalf("a worker virtually ahead of its victim stole after %v, before the %v grace", waited, stallGrace)
	}
	release()
	// Worker 1 wedged: idle worker 0 is behind, so it takes the job.
	wedge(1)
	queue(1)
	if got := e.StealCounts(); got[0] != 1 || got[1] != 1 {
		t.Fatalf("steal counts %v, want [1 1]", got)
	}
}

func TestBackpressureRejects(t *testing.T) {
	prog := buildProg(t, core.Baseline, nil)
	e := New(prog, Opts{Workers: 1, QueueDepth: 1})

	gate := make(chan struct{})
	started := make(chan struct{})
	if err := e.Submit(JobSpec{Name: "blocker", Fn: func(t *core.Task) error {
		close(started)
		<-gate
		return nil
	}}); err != nil {
		t.Fatalf("blocker rejected: %v", err)
	}
	<-started
	// Worker busy; depth-1 queue takes exactly one more.
	if err := e.Submit(JobSpec{Name: "queued", Fn: nop}); err != nil {
		t.Fatalf("queue should have room for one job: %v", err)
	}
	if err := e.Submit(JobSpec{Name: "overflow", Fn: nop}); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("full engine: err = %v, want ErrBackpressure", err)
	}
	close(gate)
	e.Close()
	ms := e.Metrics()
	if ms[0].Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", ms[0].Rejected)
	}
	if TotalRequests(ms) != 2 {
		t.Fatalf("executed %d, want 2", TotalRequests(ms))
	}
	// Closed engine rejects everything, with the terminal error.
	if err := e.Submit(JobSpec{Name: "late", Fn: nop}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed engine: err = %v, want ErrClosed", err)
	}
	if err := e.Submit(JobSpec{Name: "late2", Fn: nop}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed engine second submit: err = %v, want ErrClosed", err)
	}
}

// TestConcurrentEnclosureIsolation is the multi-core safety property:
// two workers entering the same enclosure simultaneously get
// independent environments and independent faults — a protection fault
// on worker A never aborts worker B, and the program as a whole stays
// alive. Run repeatedly to shake interleavings (and under -race).
func TestConcurrentEnclosureIsolation(t *testing.T) {
	// Baseline is the paper's no-enforcement control — it cannot fault —
	// so the property is checked on the enforcing backends.
	for _, kind := range []core.BackendKind{core.MPK, core.VTX} {
		t.Run(kind.String(), func(t *testing.T) {
			var aIn, bIn chan struct{}
			var faultsBefore int64
			var victim *core.WorkerCtx

			body := func(task *core.Task, args ...core.Value) ([]core.Value, error) {
				switch args[0].(string) {
				case "fault":
					close(aIn) // rendezvous: both sides are inside the enclosure
					<-bIn
					// "sys:none" forbids every system call: this faults and
					// aborts only this worker's domain.
					task.Syscall(kernel.NrGetpid)
					return nil, fmt.Errorf("unreachable: filtered syscall returned")
				default: // "work"
					close(bIn)
					<-aIn
					// Wait until the sibling worker's fault has landed, then
					// prove this environment still works end to end.
					for victim.Domain().Faults() == faultsBefore {
						time.Sleep(50 * time.Microsecond)
					}
					page, err := task.Prog().ConstRef("res", "page")
					if err != nil {
						return nil, err
					}
					if got := task.ReadString(page); got != "resource-bytes" {
						return nil, fmt.Errorf("read %q inside enclosure", got)
					}
					task.Compute(500)
					return []core.Value{"ok"}, nil
				}
			}
			prog := buildProg(t, kind, body)
			e := New(prog, Opts{Workers: 2})
			defer e.Close()
			guard := prog.MustEnclosure("guard")

			const rounds = 20
			for i := 0; i < rounds; i++ {
				aIn = make(chan struct{})
				bIn = make(chan struct{})

				running := make(chan *core.WorkerCtx, 1)
				pa := submit(t, e, 0, "faulter", func(task *core.Task) error {
					running <- task.Worker()
					_, err := guard.Call(task, "fault")
					return err
				})
				// The worker running the faulter is only known once it
				// starts; the worker pool steals, so it is not fixed.
				victim = <-running
				faultsBefore = victim.Domain().Faults()
				pb := submit(t, e, 1, "worker", func(task *core.Task) error {
					res, err := guard.Call(task, "work")
					if err != nil {
						return err
					}
					if res[0].(string) != "ok" {
						return fmt.Errorf("enclosure result %v", res[0])
					}
					return nil
				})

				// The faulting job dies with the protection fault...
				errA := <-pa
				var f *litterbox.Fault
				if !errors.As(errA, &f) {
					t.Fatalf("round %d: faulter returned %v, want *litterbox.Fault", i, errA)
				}
				if !strings.Contains(f.Error(), "getpid") && f.Op != "syscall" {
					t.Fatalf("round %d: unexpected fault %v", i, f)
				}
				// ...while the sibling worker's enclosure call, running
				// concurrently in the same enclosure, is untouched.
				if err := <-pb; err != nil {
					t.Fatalf("round %d: innocent worker aborted: %v", i, err)
				}
				// The program-wide abort never fires: faults stay in the
				// worker's domain.
				if pf, dead := prog.Fault(); dead {
					t.Fatalf("round %d: program-wide abort: %v", i, pf)
				}
			}
			ms := e.Metrics()
			var faults int64
			for _, m := range ms {
				faults += m.Faults
			}
			if faults != rounds {
				t.Fatalf("fault count %d, want %d\n%s", faults, rounds, MetricsString(ms))
			}
			// Engine still serves after every round's fault.
			if err := <-submit(t, e, 0, "after", nop); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestServeShardedAccept(t *testing.T) {
	prog := buildProg(t, core.MPK, nil)
	e := New(prog, Opts{Workers: 4})
	defer e.Close()

	const port = 9000
	srv, err := e.Serve(ServeOpts{
		Port: port,
		Conn: func(t *core.Task, fd int) error {
			buf := t.AllocIn("main", 64)
			n, errno := t.Syscall(kernel.NrRead, uint64(fd), uint64(buf.Addr), buf.Size)
			if errno != kernel.OK {
				return fmt.Errorf("read: %v", errno)
			}
			req := t.ReadBytes(buf.Slice(0, n))
			resp := []byte("echo:" + string(req))
			out := t.NewBytes(resp)
			if _, errno := t.Syscall(kernel.NrWrite, uint64(fd), uint64(out.Addr), out.Size); errno != kernel.OK {
				return fmt.Errorf("write: %v", errno)
			}
			t.Syscall(kernel.NrClose, uint64(fd))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	client := simnet.HostIP(10, 0, 0, 99)
	addr := simnet.Addr{Host: core.DefaultHostIP, Port: port}
	const reqs = 32
	for i := 0; i < reqs; i++ {
		conn, err := prog.Net().Dial(client, addr)
		if err != nil {
			t.Fatal(err)
		}
		msg := fmt.Sprintf("ping%d", i)
		if _, err := conn.Write([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		var got []byte
		buf := make([]byte, 256)
		for {
			n, err := conn.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				break
			}
		}
		if string(got) != "echo:"+msg {
			t.Fatalf("request %d: got %q", i, got)
		}
		conn.Close()
	}
	srv.Close()
	e.Close()
	if srv.accepted.Load() != reqs {
		t.Fatalf("accepted %d, want %d", srv.accepted.Load(), reqs)
	}
	ms := e.Metrics()
	if TotalRequests(ms) != reqs {
		t.Fatalf("executed %d, want %d", TotalRequests(ms), reqs)
	}
	// Round-robin shard dialling spreads connections over every
	// worker's queue.
	for _, m := range ms {
		if m.Enqueued == 0 {
			t.Errorf("worker %d never received a connection:\n%s", m.Worker, MetricsString(ms))
		}
	}
}

func TestServeBackpressureSheds(t *testing.T) {
	prog := buildProg(t, core.Baseline, nil)
	e := New(prog, Opts{Workers: 1, QueueDepth: 1})

	gate := make(chan struct{})
	started := make(chan struct{})
	var startOnce sync.Once
	const port = 9001
	srv, err := e.Serve(ServeOpts{
		Port: port,
		Conn: func(t *core.Task, fd int) error {
			startOnce.Do(func() { close(started) })
			<-gate
			t.Syscall(kernel.NrClose, uint64(fd))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	client := simnet.HostIP(10, 0, 0, 99)
	addr := simnet.Addr{Host: core.DefaultHostIP, Port: port}

	// First conn occupies the worker, second fills the queue; keep
	// dialling until the engine sheds one.
	var conns []*simnet.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < 8; i++ {
		c, err := prog.Net().Dial(client, addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	<-started
	deadline := time.Now().Add(5 * time.Second)
	for srv.Shed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no connection shed under backpressure")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	srv.Close()
	e.Close()
	if srv.accepted.Load()+srv.Shed() == 0 || srv.Shed() == 0 {
		t.Fatalf("accepted=%d shed=%d", srv.accepted.Load(), srv.Shed())
	}
}
