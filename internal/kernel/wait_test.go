package kernel

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/obs"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// The kernel-wait tests: a blocking accept, recv or send waits through
// the program's scheduler, which releases the run token for the wait
// and holds it again when the call returns (SetScheduler). CI runs
// them under -race with -count=20.

// mutexSched stands in for a program's scheduler: its run token is a
// mutex, which a wait releases for its length and takes again.
type mutexSched struct{ run *sync.Mutex }

// chanWaiter is a mutexSched wait: a one-slot wake.
type chanWaiter chan struct{}

func (w chanWaiter) Wake() { w <- struct{}{} }

func (s mutexSched) Waiter() simnet.Waiter { return make(chanWaiter, 1) }
func (s mutexSched) Wake(w simnet.Waiter)  { w.Wake() }
func (s mutexSched) Block(w simnet.Waiter) {
	s.run.Unlock()
	<-w.(chanWaiter)
	s.run.Lock()
}

// tokenWorld is a world whose kernel has a run token.
func tokenWorld(t *testing.T) (*world, *sync.Mutex) {
	t.Helper()
	w := newWorld(t)
	run := new(sync.Mutex)
	w.k.SetScheduler(mutexSched{run})
	return w, run
}

// heldCall issues one syscall on a goroutine that holds the run token,
// as a simulated goroutine does, and reports its result and whether the
// token was held again when the call returned.
func heldCall(w *world, run *sync.Mutex, nr Nr, args ...uint64) <-chan callResult {
	return heldDo(run, func() (uint64, Errno) { return w.sys(nr, args...) })
}

// heldDo is heldCall for any kernel entry.
func heldDo(run *sync.Mutex, call func() (uint64, Errno)) <-chan callResult {
	out := make(chan callResult, 1)
	run.Lock()
	go func() {
		ret, errno := call()
		held := !run.TryLock() // fails only while the caller holds it
		run.Unlock()
		out <- callResult{ret, errno, held}
	}()
	return out
}

type callResult struct {
	ret   uint64
	errno Errno
	held  bool
}

// awaitRelease waits until the blocked call has released the run token
// and takes it, as a sibling would.
func awaitRelease(t *testing.T, run *sync.Mutex) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !run.TryLock() {
		if time.Now().After(deadline) {
			t.Fatal("the blocked call kept the run token")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// result waits for a heldCall and checks it came back holding the token.
func result(t *testing.T, c <-chan callResult) callResult {
	t.Helper()
	select {
	case r := <-c:
		if !r.held {
			t.Fatal("the call returned without the run token")
		}
		return r
	case <-time.After(20 * time.Second):
		t.Fatal("the blocked call never woke")
	}
	return callResult{}
}

func TestBlockingAcceptWakesOnDial(t *testing.T) {
	w, run := tokenWorld(t)
	s, _ := w.sys(NrSocket)
	if _, errno := w.sys(NrBind, s, uint64(w.p.HostIP), 80); errno != OK {
		t.Fatalf("bind: %v", errno)
	}
	if _, errno := w.sys(NrListen, s); errno != OK {
		t.Fatalf("listen: %v", errno)
	}
	got := heldCall(w, run, NrAccept, s)
	addr := simnet.Addr{Host: w.p.HostIP, Port: 80}
	if err := w.k.Net.AwaitAccept(addr); err != nil {
		t.Fatal(err)
	}
	// The parked accept has let go of the token: a sibling takes it.
	if !run.TryLock() {
		t.Fatal("accept waits holding the run token")
	}
	run.Unlock()
	if _, err := w.k.Net.Dial(simnet.HostIP(10, 0, 0, 2), addr); err != nil {
		t.Fatal(err)
	}
	if r := result(t, got); r.errno != OK || r.ret < 3 {
		t.Fatalf("accept: fd %d %v", r.ret, r.errno)
	}
}

func TestBlockingRecvWakesOnData(t *testing.T) {
	w, run := tokenWorld(t)
	a, b := simnet.Pair()
	fd := uint64(w.p.InjectConn(a))
	out := uint64(w.buf.Base)
	got := heldCall(w, run, NrRecv, fd, out, 64)
	awaitRelease(t, run)
	if _, err := b.Write([]byte("wake")); err != nil {
		t.Fatal(err)
	}
	run.Unlock()
	if r := result(t, got); r.errno != OK || r.ret != 4 {
		t.Fatalf("recv: %d %v", r.ret, r.errno)
	}
	data := make([]byte, 4)
	if err := w.space.ReadAt(mem.Addr(out), data); err != nil || string(data) != "wake" {
		t.Fatalf("recv copied %q (%v)", data, err)
	}
}

func TestBlockingSendWaitsForRoom(t *testing.T) {
	w, run := tokenWorld(t)
	const total = 320 << 10 // more than the peer's stream buffer
	src, err := w.space.Map("big", "main", mem.KindData, total, mem.PermR|mem.PermW)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("0123456789abcdef"), total/16)
	if err := w.space.WriteAt(src.Base, want); err != nil {
		t.Fatal(err)
	}
	a, b := simnet.Pair()
	fd := uint64(w.p.InjectConn(a))
	got := heldCall(w, run, NrSend, fd, uint64(src.Base), total)
	awaitRelease(t, run)
	run.Unlock()
	var read []byte
	buf := make([]byte, 64<<10)
	for len(read) < total {
		n, err := b.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		read = append(read, buf[:n]...)
	}
	if r := result(t, got); r.errno != OK || r.ret != total {
		t.Fatalf("send: %d %v", r.ret, r.errno)
	}
	if !bytes.Equal(read, want) {
		t.Fatal("the peer read other bytes than were sent")
	}
}

// TestBlockingRecvEventCostsOnlyTheKernel: a traced recv that waits
// while a sibling charges the same clock records only what the kernel
// charged, exactly what the same recv costs with its data already
// there; the clock itself keeps the sibling's charge.
func TestBlockingRecvEventCostsOnlyTheKernel(t *testing.T) {
	w, run := tokenWorld(t)
	tr := obs.New(16)
	w.k.SetTraceSource(func(*hw.CPU) (*obs.Trace, string, string) { return tr, "test", "cpu0" })
	a, b := simnet.Pair()
	fd := uint64(w.p.InjectConn(a))
	out := uint64(w.buf.Base)

	// The kernel's own charge: a recv that finds its data waiting.
	if _, err := b.Write([]byte("ready")); err != nil {
		t.Fatal(err)
	}
	if r := result(t, heldCall(w, run, NrRecv, fd, out, 64)); r.errno != OK || r.ret != 5 {
		t.Fatalf("recv: %d %v", r.ret, r.errno)
	}

	// The same recv, waiting while a sibling runs and charges the clock.
	const sibling = 1_000_000
	clock0 := w.cpu.Clock.Now()
	got := heldCall(w, run, NrRecv, fd, out, 64)
	awaitRelease(t, run)
	w.cpu.Clock.Advance(sibling)
	if _, err := b.Write([]byte("later")); err != nil {
		t.Fatal(err)
	}
	run.Unlock()
	if r := result(t, got); r.errno != OK || r.ret != 5 {
		t.Fatalf("recv: %d %v", r.ret, r.errno)
	}

	evs := tr.Events()
	if len(evs) != 2 || evs[0].Kind != obs.KindSyscall || evs[1].Kind != obs.KindSyscall {
		t.Fatalf("want two syscall events, got %+v", evs)
	}
	if evs[0].Cost <= 0 || evs[1].Cost != evs[0].Cost {
		t.Errorf("the waiting recv's event costs %d ns, the recv that did not wait %d ns", evs[1].Cost, evs[0].Cost)
	}
	if adv := w.cpu.Clock.Now() - clock0; adv != sibling+evs[0].Cost {
		t.Errorf("the clock advanced %d ns over the waiting recv, want the sibling's %d plus the kernel's %d", adv, sibling, evs[0].Cost)
	}
}

func TestNonblockingRecvReturnsEAGAIN(t *testing.T) {
	w, run := tokenWorld(t)
	w.p.SetNonBlocking(true)
	a, _ := simnet.Pair()
	fd := uint64(w.p.InjectConn(a))
	got := heldCall(w, run, NrRecv, fd, uint64(w.buf.Base), 64)
	// No data ever arrives: the call returns at once, still holding
	// the token.
	if r := result(t, got); r.errno != EAGAIN {
		t.Fatalf("nonblocking recv on an empty socket: %d %v, want EAGAIN", r.ret, r.errno)
	}
}

func TestSysWriteErrors(t *testing.T) {
	w := newWorld(t)
	pathA, pathN := w.putString(t, 0, "/out")
	fd, errno := w.sys(NrOpen, pathA, pathN, uint64(OWronly|OCreat))
	if errno != OK {
		t.Fatalf("open: %v", errno)
	}
	unmapped := uint64(w.buf.Base) + uint64(w.buf.Size) + 16*mem.PageSize
	if n, errno := w.sys(NrWrite, fd, unmapped, 8); errno != EFAULT || n != 0 {
		t.Fatalf("write from an unmapped buffer: %d %v, want EFAULT", n, errno)
	}
	msgA, msgN := w.putString(t, 64, "data")
	if _, errno := w.sys(NrClose, fd); errno != OK {
		t.Fatalf("close: %v", errno)
	}
	if n, errno := w.sys(NrWrite, fd, msgA, msgN); errno != EBADF || n != 0 {
		t.Fatalf("write to a closed fd: %d %v, want EBADF", n, errno)
	}
	// A socket whose peer closed reports EBADF too.
	a, b := simnet.Pair()
	sfd := uint64(w.p.InjectConn(a))
	b.Close()
	if _, errno := w.sys(NrSend, sfd, msgA, msgN); errno != EBADF {
		t.Fatalf("send to a closed peer: %v, want EBADF", errno)
	}
}

// TestRingRecvWaitsLikeInvoke: a ring entry dispatches through the same
// path as a sequential call, so a blocking recv in a batch waits the
// same way, and the batch pays one trap plus the entry's bookkeeping.
func TestRingRecvWaitsLikeInvoke(t *testing.T) {
	w, run := tokenWorld(t)
	a, b := simnet.Pair()
	fd := uint64(w.p.InjectConn(a))
	out := uint64(w.buf.Base)
	got := heldDo(run, func() (uint64, Errno) {
		w.k.RingTrap(w.cpu)
		return w.k.InvokeRing(w.p, w.cpu, true, NrRecv, [6]uint64{fd, out, 64})
	})
	awaitRelease(t, run)
	if _, err := b.Write([]byte("ring")); err != nil {
		t.Fatal(err)
	}
	run.Unlock()
	if r := result(t, got); r.errno != OK || r.ret != 4 {
		t.Fatalf("ring recv: %d %v", r.ret, r.errno)
	}
	c := w.cpu.Counters.Snapshot()
	if c.RingBatches != 1 || c.RingEntries != 1 || c.Syscalls != 1 || c.BPFRuns != 0 {
		t.Fatalf("ring counters %v", c)
	}
	if want := int64(hw.CostSyscall + hw.CostRingEntry); w.cpu.Clock.Now() != want {
		t.Fatalf("ring recv charged %d, want %d", w.cpu.Clock.Now(), want)
	}
}

// TestCloneResetTo: a cloned kernel and process diverge from their
// source and ResetTo rewinds them — spans, files, entropy and the fd
// cursor — while the source never sees the clone's changes.
func TestCloneResetTo(t *testing.T) {
	w := newWorld(t)
	base, errno := w.sys(NrMmap, mem.PageSize)
	if errno != OK {
		t.Fatalf("mmap: %v", errno)
	}
	c, err := w.k.Clone(w.space, hw.NewClock(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := w.p.CloneInto(c)
	if err != nil {
		t.Fatal(err)
	}
	cw := &world{k: c, p: cp, cpu: hw.NewCPU(hw.NewClock()), space: w.space, buf: w.buf}
	if c.SpanSection(mem.Addr(base)) != w.k.SpanSection(mem.Addr(base)) {
		t.Fatal("the clone lost the source's span")
	}
	rnd := func(w *world) []byte {
		out := uint64(w.buf.Base) + 256
		if _, errno := w.sys(NrGetrandom, out, 8); errno != OK {
			t.Fatalf("getrandom: %v", errno)
		}
		b := make([]byte, 8)
		_ = w.space.ReadAt(mem.Addr(out), b)
		return b
	}
	first := rnd(cw)

	// Diverge: a new span, a file, an open descriptor.
	nbase, errno := cw.sys(NrMmap, mem.PageSize)
	if errno != OK {
		t.Fatalf("clone mmap: %v", errno)
	}
	pathA, pathN := cw.putString(t, 0, "/tenant")
	fd, errno := cw.sys(NrOpen, pathA, pathN, uint64(OWronly|OCreat))
	if errno != OK {
		t.Fatalf("clone open: %v", errno)
	}
	if _, err := cp.CloneInto(c); err != ErrLiveFDs {
		t.Fatalf("cloning a process with open fds: %v, want ErrLiveFDs", err)
	}
	if w.k.SpanSection(mem.Addr(nbase)) != nil {
		t.Fatal("the clone's span leaked into the source")
	}

	c.ResetTo(w.k)
	cp.ResetTo(w.p)
	if c.SpanSection(mem.Addr(nbase)) != nil || c.SpanSection(mem.Addr(base)) == nil {
		t.Fatal("ResetTo did not rewind the span registry")
	}
	if _, errno := cw.sys(NrStat, pathA, pathN); errno != ENOENT {
		t.Fatalf("stat after ResetTo: %v, want ENOENT", errno)
	}
	if got := rnd(cw); !bytes.Equal(got, first) {
		t.Fatalf("entropy after ResetTo %x, want %x", got, first)
	}
	if fd2, errno := cw.sys(NrOpen, pathA, pathN, uint64(OWronly|OCreat)); errno != OK || fd2 != fd {
		t.Fatalf("fd after ResetTo %d %v, want %d", fd2, errno, fd)
	}
}
