package kernel

import (
	"bytes"
	"testing"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/seccomp"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

type world struct {
	k     *Kernel
	p     *Proc
	cpu   *hw.CPU
	space *mem.AddressSpace
	buf   *mem.Section
}

func newWorld(t *testing.T) *world {
	t.Helper()
	space := mem.NewAddressSpace(0)
	clock := hw.NewClock()
	k := New(space, clock)
	p := k.NewProc(1000, 42, simnet.HostIP(10, 0, 0, 1))
	buf, err := space.Map("scratch", "main", mem.KindData, 64*1024, mem.PermR|mem.PermW)
	if err != nil {
		t.Fatal(err)
	}
	return &world{k: k, p: p, cpu: hw.NewCPU(clock), space: space, buf: buf}
}

// sys is a helper issuing an unfiltered syscall.
func (w *world) sys(nr Nr, args ...uint64) (uint64, Errno) {
	var a [6]uint64
	copy(a[:], args)
	return w.k.InvokeUnfiltered(w.p, w.cpu, nr, a)
}

// putString writes s into scratch memory and returns its address.
func (w *world) putString(t *testing.T, off uint64, s string) (uint64, uint64) {
	t.Helper()
	if err := w.space.WriteAt(w.buf.Base+mem.Addr(off), []byte(s)); err != nil {
		t.Fatal(err)
	}
	return uint64(w.buf.Base) + off, uint64(len(s))
}

func TestFileSyscallFlow(t *testing.T) {
	w := newWorld(t)
	dirA, dirN := w.putString(t, 0, "/etc")
	if _, errno := w.sys(NrMkdir, dirA, dirN); errno != OK {
		t.Fatalf("mkdir: %v", errno)
	}
	pathA, pathN := w.putString(t, 64, "/etc/passwd")
	fd, errno := w.sys(NrOpen, pathA, pathN, uint64(OWronly|OCreat))
	if errno != OK {
		t.Fatalf("open: %v", errno)
	}
	dataA, dataN := w.putString(t, 128, "root:x:0:0")
	if n, errno := w.sys(NrWrite, fd, dataA, dataN); errno != OK || n != dataN {
		t.Fatalf("write: %d %v", n, errno)
	}
	if _, errno := w.sys(NrClose, fd); errno != OK {
		t.Fatalf("close: %v", errno)
	}
	if _, errno := w.sys(NrClose, fd); errno != EBADF {
		t.Fatalf("double close: %v", errno)
	}

	// stat reports the size.
	if n, errno := w.sys(NrStat, pathA, pathN); errno != OK || n != dataN {
		t.Fatalf("stat: %d %v", n, errno)
	}

	// Read it back through simulated memory.
	fd, errno = w.sys(NrOpen, pathA, pathN, uint64(ORdonly))
	if errno != OK {
		t.Fatalf("reopen: %v", errno)
	}
	out := uint64(w.buf.Base) + 256
	n, errno := w.sys(NrRead, fd, out, 64)
	if errno != OK || n != dataN {
		t.Fatalf("read: %d %v", n, errno)
	}
	got := make([]byte, n)
	_ = w.space.ReadAt(mem.Addr(out), got)
	if string(got) != "root:x:0:0" {
		t.Fatalf("read back %q", got)
	}
	// EOF reads return 0.
	if n, errno := w.sys(NrRead, fd, out, 64); errno != OK || n != 0 {
		t.Fatalf("read at EOF: %d %v", n, errno)
	}
	w.sys(NrClose, fd)

	// unlink and re-stat.
	if _, errno := w.sys(NrUnlink, pathA, pathN); errno != OK {
		t.Fatalf("unlink: %v", errno)
	}
	if _, errno := w.sys(NrStat, pathA, pathN); errno != ENOENT {
		t.Fatalf("stat after unlink: %v", errno)
	}
}

func TestReadDirSyscall(t *testing.T) {
	w := newWorld(t)
	if err := w.k.FS.WriteFile("/home/a", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.k.FS.WriteFile("/home/b", nil); err != nil {
		t.Fatal(err)
	}
	pathA, pathN := w.putString(t, 0, "/home")
	out := uint64(w.buf.Base) + 64
	n, errno := w.sys(NrReadDir, pathA, pathN, out, 128)
	if errno != OK {
		t.Fatalf("readdir: %v", errno)
	}
	got := make([]byte, n)
	_ = w.space.ReadAt(mem.Addr(out), got)
	if string(got) != "a\nb" {
		t.Fatalf("readdir = %q", got)
	}
}

func TestSocketFlow(t *testing.T) {
	w := newWorld(t)
	srv, errno := w.sys(NrSocket)
	if errno != OK {
		t.Fatalf("socket: %v", errno)
	}
	if _, errno := w.sys(NrBind, srv, uint64(simnet.HostIP(10, 0, 0, 1)), 80); errno != OK {
		t.Fatalf("bind: %v", errno)
	}
	if _, errno := w.sys(NrListen, srv); errno != OK {
		t.Fatalf("listen: %v", errno)
	}

	// A host-level client connects and speaks.
	go func() {
		c, err := w.k.Net.Dial(simnet.HostIP(10, 0, 0, 99), simnet.Addr{Host: simnet.HostIP(10, 0, 0, 1), Port: 80})
		if err != nil {
			return
		}
		_, _ = c.Write([]byte("hi"))
		buf := make([]byte, 4)
		_, _ = c.Read(buf)
		c.Close()
	}()

	conn, errno := w.sys(NrAccept, srv)
	if errno != OK {
		t.Fatalf("accept: %v", errno)
	}
	out := uint64(w.buf.Base)
	n, errno := w.sys(NrRecv, conn, out, 16)
	if errno != OK || n != 2 {
		t.Fatalf("recv: %d %v", n, errno)
	}
	if _, errno := w.sys(NrSend, conn, out, 2); errno != OK {
		t.Fatalf("send: %v", errno)
	}
	if _, errno := w.sys(NrShutdown, conn); errno != OK {
		t.Fatalf("shutdown: %v", errno)
	}
	if _, errno := w.sys(NrClose, srv); errno != OK {
		t.Fatalf("close listener: %v", errno)
	}
}

func TestSocketErrors(t *testing.T) {
	w := newWorld(t)
	if _, errno := w.sys(NrListen, 99); errno != EBADF {
		t.Fatalf("listen bad fd: %v", errno)
	}
	s, _ := w.sys(NrSocket)
	if _, errno := w.sys(NrListen, s); errno != ENOTSOCK {
		t.Fatalf("listen unbound: %v", errno)
	}
	if _, errno := w.sys(NrAccept, s); errno != ENOTSOCK {
		t.Fatalf("accept non-listener: %v", errno)
	}
	if _, errno := w.sys(NrConnect, s, 12345, 80); errno != ECONNREFUSED {
		t.Fatalf("connect nowhere: %v", errno)
	}
	fdFile, _ := w.putString(t, 0, "/f")
	_ = fdFile
	if _, errno := w.sys(NrBind, 1234, 1, 2); errno != EBADF {
		t.Fatalf("bind bad fd: %v", errno)
	}
}

func TestMmapMunmap(t *testing.T) {
	w := newWorld(t)
	base, errno := w.sys(NrMmap, 3*mem.PageSize)
	if errno != OK {
		t.Fatalf("mmap: %v", errno)
	}
	sec := w.k.SpanSection(mem.Addr(base))
	if sec == nil || sec.Size != 3*mem.PageSize || sec.Pkg != HeapOwner {
		t.Fatalf("span: %v", sec)
	}
	if _, errno := w.sys(NrMunmap, base); errno != OK {
		t.Fatalf("munmap: %v", errno)
	}
	if w.k.SpanSection(mem.Addr(base)) != nil {
		t.Fatal("span survives munmap")
	}
	if _, errno := w.sys(NrMunmap, base); errno != EINVAL {
		t.Fatalf("double munmap: %v", errno)
	}
	if _, errno := w.sys(NrMmap, 0); errno != EINVAL {
		t.Fatalf("mmap 0: %v", errno)
	}
}

func TestIdentityAndMisc(t *testing.T) {
	w := newWorld(t)
	if uid, _ := w.sys(NrGetuid); uid != 1000 {
		t.Fatalf("getuid = %d", uid)
	}
	if pid, _ := w.sys(NrGetpid); pid != 42 {
		t.Fatalf("getpid = %d", pid)
	}
	if _, errno := w.sys(NrKill, 1); errno != EPERM {
		t.Fatalf("kill: %v", errno)
	}
	if _, errno := w.sys(Nr(9999)); errno != ENOSYS {
		t.Fatalf("unknown syscall: %v", errno)
	}
	w.sys(NrExit, 3)
	if !w.p.exited || w.p.code != 3 {
		t.Fatalf("exit state %v %d", w.p.exited, w.p.code)
	}
}

func TestGetrandomDeterministicPerKernel(t *testing.T) {
	w := newWorld(t)
	a := uint64(w.buf.Base)
	if n, errno := w.sys(NrGetrandom, a, 16); errno != OK || n != 16 {
		t.Fatalf("getrandom: %d %v", n, errno)
	}
	first := make([]byte, 16)
	_ = w.space.ReadAt(w.buf.Base, first)
	w.sys(NrGetrandom, a, 16)
	second := make([]byte, 16)
	_ = w.space.ReadAt(w.buf.Base, second)
	if bytes.Equal(first, second) {
		t.Fatal("getrandom repeated output")
	}
}

func TestClockGettimeAndNanosleep(t *testing.T) {
	w := newWorld(t)
	a := uint64(w.buf.Base)
	w.sys(NrClockGettime, a)
	t0, _ := w.space.Load64(w.buf.Base)
	w.sys(NrNanosleep, 1000)
	w.sys(NrClockGettime, a)
	t1, _ := w.space.Load64(w.buf.Base)
	if t1 < t0+1000 {
		t.Fatalf("nanosleep did not advance virtual time: %d -> %d", t0, t1)
	}
}

func TestSeccompFilterIntegration(t *testing.T) {
	w := newWorld(t)
	// Allow only getuid for PKRU value 0 (the fresh CPU's).
	prog, err := seccomp.CompileFilter([]seccomp.EnvRule{
		{PKRU: 0, Allowed: []uint32{uint32(NrGetuid)}},
	}, seccomp.RetTrap, seccomp.RetTrap)
	if err != nil {
		t.Fatal(err)
	}
	w.k.SetSeccompFilter(prog)

	var a [6]uint64
	if _, errno := w.k.Invoke(w.p, w.cpu, NrGetuid, a); errno != OK {
		t.Fatalf("allowed getuid: %v", errno)
	}
	if _, errno := w.k.Invoke(w.p, w.cpu, NrGetpid, a); errno != ESECCOMP {
		t.Fatalf("filtered getpid: %v", errno)
	}
	// Costs: filtered path charged syscall+BPF.
	if got := w.cpu.Counters.BPFRuns; got != 2 {
		t.Fatalf("BPF runs = %d", got)
	}
	// Unfiltered entry point bypasses.
	if _, errno := w.k.InvokeUnfiltered(w.p, w.cpu, NrGetpid, a); errno != OK {
		t.Fatalf("unfiltered getpid: %v", errno)
	}
}

func TestInjectConnAndListener(t *testing.T) {
	w := newWorld(t)
	ln, err := w.k.Net.Listen(simnet.Addr{Host: 7, Port: 7})
	if err != nil {
		t.Fatal(err)
	}
	lfd := w.p.allocFD(&fdEntry{ln: ln})
	go func() {
		c, _ := w.k.Net.Dial(8, simnet.Addr{Host: 7, Port: 7})
		if c != nil {
			_, _ = c.Write([]byte("x"))
			c.Close()
		}
	}()
	conn, errno := w.sys(NrAccept, uint64(lfd))
	if errno != OK {
		t.Fatalf("accept injected: %v", errno)
	}
	n, errno := w.sys(NrRead, conn, uint64(w.buf.Base), 8)
	if errno != OK || n != 1 {
		t.Fatalf("read injected conn: %d %v", n, errno)
	}
}

func TestCategories(t *testing.T) {
	if CategoryOf(NrOpen) != CatFile || CategoryOf(NrRead) != CatIO ||
		CategoryOf(NrConnect) != CatNet || CategoryOf(NrMmap) != CatMem ||
		CategoryOf(NrGetuid) != CatProc || CategoryOf(NrClockGettime) != CatTime ||
		CategoryOf(NrKill) != CatSig || CategoryOf(NrFutex) != CatIPC {
		t.Fatal("category table broken")
	}
	if CategoryOf(Nr(9999)) != CatNone {
		t.Fatal("unknown syscall should be uncategorised")
	}
	net := NumbersIn(CatNet)
	for _, n := range net {
		if CategoryOf(n) != CatNet {
			t.Fatalf("NumbersIn(net) contains %s", n.Name())
		}
	}
	all := NumbersIn(CatAll)
	if len(all) != len(Numbers()) {
		t.Fatalf("NumbersIn(all) = %d, Numbers = %d", len(all), len(Numbers()))
	}
	if (CatNet | CatIO).String() != "net,io" {
		t.Fatalf("category string: %q", (CatNet | CatIO).String())
	}
	if CatNone.String() != "none" || CatAll.String() != "all" {
		t.Fatal("none/all strings")
	}
	if NrGetuid.Name() != "getuid" || Nr(9999).Name() != "sys_9999" {
		t.Fatal("syscall names")
	}
}

func TestErrnoStrings(t *testing.T) {
	for e, want := range map[Errno]string{
		OK: "ok", EPERM: "EPERM", ENOENT: "ENOENT", ESECCOMP: "ESECCOMP",
		Errno(250): "errno(250)",
	} {
		if e.Error() != want {
			t.Errorf("%d -> %q, want %q", uint32(e), e.Error(), want)
		}
	}
}

func TestReadPathValidation(t *testing.T) {
	w := newWorld(t)
	// Zero-length and oversized paths are EINVAL; unmapped pointer EFAULT.
	if _, errno := w.sys(NrOpen, uint64(w.buf.Base), 0, uint64(ORdonly)); errno != EINVAL {
		t.Fatalf("zero path: %v", errno)
	}
	if _, errno := w.sys(NrOpen, uint64(w.buf.Base), 5000, uint64(ORdonly)); errno != EINVAL {
		t.Fatalf("huge path: %v", errno)
	}
	if _, errno := w.sys(NrOpen, 0x10, 4, uint64(ORdonly)); errno != EFAULT {
		t.Fatalf("bad pointer: %v", errno)
	}
}

func TestLseekAndDup(t *testing.T) {
	w := newWorld(t)
	pathA, pathN := w.putString(t, 0, "/f")
	if err := w.k.FS.WriteFile("/f", []byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	fd, errno := w.sys(NrOpen, pathA, pathN, uint64(ORdonly))
	if errno != OK {
		t.Fatal(errno)
	}
	if pos, errno := w.sys(NrLseek, fd, 4, 0); errno != OK || pos != 4 {
		t.Fatalf("lseek set: %d %v", pos, errno)
	}
	out := uint64(w.buf.Base) + 64
	n, errno := w.sys(NrRead, fd, out, 8)
	if errno != OK || n != 4 {
		t.Fatalf("read after seek: %d %v", n, errno)
	}
	got := make([]byte, 4)
	_ = w.space.ReadAt(mem.Addr(out), got)
	if string(got) != "efgh" {
		t.Fatalf("seeked read %q", got)
	}
	// SEEK_END and SEEK_CUR.
	if pos, errno := w.sys(NrLseek, fd, ^uint64(1), 2); errno != OK || pos != 6 {
		t.Fatalf("lseek end-2: %d %v", pos, errno)
	}
	// dup shares the cursor.
	dup, errno := w.sys(NrDup, fd)
	if errno != OK {
		t.Fatal(errno)
	}
	n, errno = w.sys(NrRead, dup, out, 8)
	if errno != OK || n != 2 {
		t.Fatalf("read via dup: %d %v", n, errno)
	}
	if _, errno := w.sys(NrDup, 999); errno != EBADF {
		t.Fatalf("dup bad fd: %v", errno)
	}
	// Sockets do not seek.
	s, _ := w.sys(NrSocket)
	if _, errno := w.sys(NrLseek, s, 0, 0); errno != EINVAL {
		t.Fatalf("lseek socket: %v", errno)
	}
}

func TestPipe(t *testing.T) {
	w := newWorld(t)
	packed, errno := w.sys(NrPipe)
	if errno != OK {
		t.Fatal(errno)
	}
	rfd, wfd := packed>>32, packed&0xFFFFFFFF
	msgA, msgN := w.putString(t, 0, "through the pipe")
	if n, errno := w.sys(NrWrite, wfd, msgA, msgN); errno != OK || n != msgN {
		t.Fatalf("pipe write: %d %v", n, errno)
	}
	out := uint64(w.buf.Base) + 128
	n, errno := w.sys(NrRead, rfd, out, 64)
	if errno != OK || n != msgN {
		t.Fatalf("pipe read: %d %v", n, errno)
	}
	got := make([]byte, n)
	_ = w.space.ReadAt(mem.Addr(out), got)
	if string(got) != "through the pipe" {
		t.Fatalf("pipe data %q", got)
	}
	if CategoryOf(NrPipe) != CatIPC || CategoryOf(NrLseek) != CatIO {
		t.Fatal("new syscall categories")
	}
}

func TestNonBlockingIO(t *testing.T) {
	w := newWorld(t)
	w.p.SetNonBlocking(true)

	// Empty pipe: read returns EAGAIN instead of blocking.
	packed, errno := w.sys(NrPipe)
	if errno != OK {
		t.Fatal(errno)
	}
	rfd, wfd := packed>>32, packed&0xFFFFFFFF
	out := uint64(w.buf.Base) + 128
	if _, errno := w.sys(NrRead, rfd, out, 16); errno != EAGAIN {
		t.Fatalf("read on empty pipe: %v, want EAGAIN", errno)
	}

	// With data buffered the same read succeeds.
	msgA, msgN := w.putString(t, 0, "nonblock")
	if n, errno := w.sys(NrWrite, wfd, msgA, msgN); errno != OK || n != msgN {
		t.Fatalf("pipe write: %d %v", n, errno)
	}
	if n, errno := w.sys(NrRead, rfd, out, 64); errno != OK || n != msgN {
		t.Fatalf("pipe read: %d %v", n, errno)
	}

	// A closed peer still reads as EOF, not EAGAIN.
	if _, errno := w.sys(NrClose, wfd); errno != OK {
		t.Fatal(errno)
	}
	if n, errno := w.sys(NrRead, rfd, out, 16); errno != OK || n != 0 {
		t.Fatalf("read after close: %d %v, want EOF", n, errno)
	}

	// Empty backlog: accept returns EAGAIN; after a dial it succeeds.
	s, _ := w.sys(NrSocket)
	if _, errno := w.sys(NrBind, s, uint64(w.p.HostIP), 80); errno != OK {
		t.Fatalf("bind: %v", errno)
	}
	if _, errno := w.sys(NrListen, s); errno != OK {
		t.Fatalf("listen: %v", errno)
	}
	if _, errno := w.sys(NrAccept, s); errno != EAGAIN {
		t.Fatalf("accept on empty backlog: %v, want EAGAIN", errno)
	}
	if _, err := w.k.Net.Dial(simnet.HostIP(10, 0, 0, 2), simnet.Addr{Host: w.p.HostIP, Port: 80}); err != nil {
		t.Fatalf("dial: %v", err)
	}
	if fd, errno := w.sys(NrAccept, s); errno != OK || fd == 0 {
		t.Fatalf("accept with queued conn: %d %v", fd, errno)
	}
}

func TestConnectFlow(t *testing.T) {
	w := newWorld(t)
	ln, err := w.k.Net.Listen(simnet.Addr{Host: 7, Port: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			buf := make([]byte, 8)
			_, _ = conn.Read(buf)
			conn.Close()
		}
	}()
	s, _ := w.sys(NrSocket)
	if _, errno := w.sys(NrConnect, s, 7, 7); errno != OK {
		t.Fatalf("connect: %v", errno)
	}
	msgA, msgN := w.putString(t, 0, "x")
	if _, errno := w.sys(NrSend, s, msgA, msgN); errno != OK {
		t.Fatalf("send after connect: %v", errno)
	}
	// connect on a non-socket fd.
	pathA, pathN := w.putString(t, 64, "/c")
	fd, _ := w.sys(NrOpen, pathA, pathN, uint64(OWronly|OCreat))
	if _, errno := w.sys(NrConnect, fd, 7, 7); errno != ENOTSOCK {
		t.Fatalf("connect on file: %v", errno)
	}
}

func TestInjectConnUsableViaFd(t *testing.T) {
	w := newWorld(t)
	a, b := simnet.Pair()
	fd := w.p.InjectConn(a)
	go func() {
		buf := make([]byte, 8)
		n, _ := b.Read(buf)
		_, _ = b.Write(buf[:n])
		b.Close()
	}()
	msgA, msgN := w.putString(t, 0, "ping")
	if _, errno := w.sys(NrWrite, uint64(fd), msgA, msgN); errno != OK {
		t.Fatal("write injected conn")
	}
	out := uint64(w.buf.Base) + 64
	if n, errno := w.sys(NrRead, uint64(fd), out, 16); errno != OK || n != 4 {
		t.Fatalf("read injected conn: %d %v", n, errno)
	}
}

func TestFileErrnoPaths(t *testing.T) {
	w := newWorld(t)
	missA, missN := w.putString(t, 0, "/missing")
	if _, errno := w.sys(NrUnlink, missA, missN); errno != ENOENT {
		t.Fatalf("unlink missing: %v", errno)
	}
	if _, errno := w.sys(NrReadDir, missA, missN, uint64(w.buf.Base), 64); errno != ENOENT {
		t.Fatalf("readdir missing: %v", errno)
	}
	// mkdir over a file -> ENOTDIR.
	fA, fN := w.putString(t, 64, "/plainfile")
	if _, errno := w.sys(NrOpen, fA, fN, uint64(OWronly|OCreat)); errno != OK {
		t.Fatal("create")
	}
	subA, subN := w.putString(t, 128, "/plainfile/sub")
	if _, errno := w.sys(NrMkdir, subA, subN); errno != ENOTDIR {
		t.Fatalf("mkdir over file: %v", errno)
	}
	// open a directory for writing -> EISDIR.
	dA, dN := w.putString(t, 192, "/somedir")
	w.sys(NrMkdir, dA, dN)
	if _, errno := w.sys(NrOpen, dA, dN, uint64(OWronly)); errno != EISDIR {
		t.Fatalf("open dir for write: %v", errno)
	}
	// bad flags -> EINVAL.
	if _, errno := w.sys(NrOpen, fA, fN, uint64(ORdwr|0x1)); errno != EINVAL {
		t.Fatalf("bad flags: %v", errno)
	}
	// SetPkeyOps is exercised by the MPK backend; nil means ENOSYS.
	w.k.SetPkeyOps(nil)
	if _, errno := w.sys(NrPkeyAlloc); errno != ENOSYS {
		t.Fatalf("pkey_alloc without MPK: %v", errno)
	}
}

func TestAllErrnoStringsDistinct(t *testing.T) {
	all := []Errno{OK, EPERM, ENOENT, EBADF, EAGAIN, EACCES, EFAULT, EEXIST,
		ENOTDIR, EISDIR, EINVAL, EMFILE, ENOSYS, ENOTSOCK, EADDRINUSE,
		ECONNREFUSED, ESECCOMP}
	seen := map[string]bool{}
	for _, e := range all {
		s := e.Error()
		if s == "" || seen[s] {
			t.Errorf("errno %d string %q empty or duplicated", uint32(e), s)
		}
		seen[s] = true
	}
}
