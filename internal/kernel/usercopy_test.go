package kernel

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/simfs"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// unmapped is an address no world maps.
const unmapped = uint64(1) << 40

// holeAfter maps one page and unmaps the page after it, returning the
// mapped page's base: a buffer that runs off its end faults.
func (w *world) holeAfter(t *testing.T) mem.Addr {
	t.Helper()
	a, err := w.space.Map("edge", "main", mem.KindData, mem.PageSize, mem.PermR|mem.PermW)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.space.Map("hole", "main", mem.KindData, mem.PageSize, mem.PermR|mem.PermW)
	if err != nil {
		t.Fatal(err)
	}
	if b.Base != a.End() {
		t.Fatalf("sections not adjacent: %s then %s", a.End(), b.Base)
	}
	if err := w.space.Unmap(b); err != nil {
		t.Fatal(err)
	}
	return a.Base
}

func (w *world) read(t *testing.T, addr uint64, n uint64) []byte {
	t.Helper()
	got := make([]byte, n)
	if err := w.space.ReadAt(mem.Addr(addr), got); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestReadFaultKeepsBytes: a read into an unmapped buffer returns
// EFAULT and consumes nothing, so a read into a good buffer still gets
// the bytes — for pipes, sockets and files alike.
func TestReadFaultKeepsBytes(t *testing.T) {
	const msg = "keep these bytes"
	w := newWorld(t)
	w.p.SetNonBlocking(true) // a lost message reads as EAGAIN, not a hang
	packed, errno := w.sys(NrPipe)
	if errno != OK {
		t.Fatal(errno)
	}
	rfd, wfd := packed>>32, packed&0xFFFFFFFF
	a, n := w.putString(t, 0, msg)
	if got, errno := w.sys(NrWrite, wfd, a, n); errno != OK || got != n {
		t.Fatalf("write: %d %v", got, errno)
	}
	if got, errno := w.sys(NrRecv, rfd, unmapped, 64); errno != EFAULT || got != 0 {
		t.Fatalf("recv into unmapped buffer: %d %v, want 0 EFAULT", got, errno)
	}
	out := uint64(w.buf.Base) + 1024
	got, errno := w.sys(NrRead, rfd, out, 64)
	if errno != OK || got != n {
		t.Fatalf("read after the fault: %d %v, want %d OK", got, errno, n)
	}
	if s := w.read(t, out, got); string(s) != msg {
		t.Fatalf("read after the fault = %q, want %q", s, msg)
	}

	if err := w.k.FS.WriteFile("/f", []byte(msg)); err != nil {
		t.Fatal(err)
	}
	pathA, pathN := w.putString(t, 512, "/f")
	fd, errno := w.sys(NrOpen, pathA, pathN, uint64(simfs.ORdonly))
	if errno != OK {
		t.Fatal(errno)
	}
	if got, errno := w.sys(NrRead, fd, unmapped, 64); errno != EFAULT || got != 0 {
		t.Fatalf("file read into unmapped buffer: %d %v, want 0 EFAULT", got, errno)
	}
	if got, errno := w.sys(NrRead, fd, out, 64); errno != OK || string(w.read(t, out, got)) != msg {
		t.Fatalf("file read after the fault: %d %v", got, errno)
	}
}

// TestReadFaultMidBufferLosesNothing: a read whose buffer runs into an
// unmapped page either faults before the first byte or ends short; in
// both cases the bytes it did not deliver stay readable.
func TestReadFaultMidBufferLosesNothing(t *testing.T) {
	w := newWorld(t)
	w.p.SetNonBlocking(true)
	a, b := simnet.Pair()
	rfd := uint64(w.p.InjectConn(a))
	msg := bytes.Repeat([]byte("0123456789abcdef"), 256) // 4 KiB
	if _, err := b.Write(msg); err != nil {
		t.Fatal(err)
	}
	edge := uint64(w.holeAfter(t)) + mem.PageSize - 2048 // 2 KiB before the hole
	got, errno := w.sys(NrRead, rfd, edge, uint64(len(msg)))
	var first []byte
	switch {
	case errno == EFAULT && got == 0:
	case errno == OK && got > 0 && got <= 2048:
		first = w.read(t, edge, got)
	default:
		t.Fatalf("read across the hole: %d %v, want a short read or EFAULT", got, errno)
	}
	out := uint64(w.buf.Base)
	rest, errno := w.sys(NrRead, rfd, out, uint64(len(msg)))
	if errno != OK {
		t.Fatalf("read of the rest: %v", errno)
	}
	if all := append(first, w.read(t, out, rest)...); !bytes.Equal(all, msg) {
		t.Fatalf("%d+%d bytes read back, want the %d written, in order", len(first), rest, len(msg))
	}
}

// TestWriteFaultDeliversNothing: a write from a buffer whose last page
// is unmapped returns EFAULT, and the peer reads nothing — for a conn
// and a file alike.
func TestWriteFaultDeliversNothing(t *testing.T) {
	w := newWorld(t)
	w.p.SetNonBlocking(true)
	packed, errno := w.sys(NrPipe)
	if errno != OK {
		t.Fatal(errno)
	}
	rfd, wfd := packed>>32, packed&0xFFFFFFFF
	src := uint64(w.holeAfter(t)) + mem.PageSize - 100
	if got, errno := w.sys(NrSend, wfd, src, 200); errno != EFAULT || got != 0 {
		t.Fatalf("send across the hole: %d %v, want 0 EFAULT", got, errno)
	}
	if got, errno := w.sys(NrRead, rfd, uint64(w.buf.Base), 512); errno != EAGAIN {
		t.Fatalf("peer read after a faulted send: %d %v, want EAGAIN", got, errno)
	}

	pathA, pathN := w.putString(t, 0, "/g")
	fd, errno := w.sys(NrOpen, pathA, pathN, uint64(simfs.OWronly|simfs.OCreat))
	if errno != OK {
		t.Fatal(errno)
	}
	if got, errno := w.sys(NrWrite, fd, src, 2000); errno != EFAULT || got != 0 {
		t.Fatalf("file write across the hole: %d %v, want 0 EFAULT", got, errno)
	}
	if data, err := w.k.FS.ReadFile("/g"); err != nil || len(data) != 0 {
		t.Fatalf("file after a faulted write: %q %v, want empty", data, err)
	}
}

// TestChunkedCopiesMatchOneShot drives file I/O, readdir and getrandom
// across the stack chunk's boundaries and checks the bytes against the
// one-shot result.
func TestChunkedCopiesMatchOneShot(t *testing.T) {
	w := newWorld(t)
	data := make([]byte, 3*chunkSize+17)
	for i := range data {
		data[i] = byte(i * 7)
	}
	pathA, pathN := w.putString(t, 0, "/big")
	fd, errno := w.sys(NrOpen, pathA, pathN, uint64(simfs.ORdwr|simfs.OCreat))
	if errno != OK {
		t.Fatal(errno)
	}
	src := uint64(w.buf.Base) + 4096
	if err := w.space.WriteAt(mem.Addr(src), data); err != nil {
		t.Fatal(err)
	}
	if got, errno := w.sys(NrWrite, fd, src, uint64(len(data))); errno != OK || got != uint64(len(data)) {
		t.Fatalf("chunked file write: %d %v", got, errno)
	}
	if stored, _ := w.k.FS.ReadFile("/big"); !bytes.Equal(stored, data) {
		t.Fatal("chunked file write stored different bytes")
	}
	if _, errno := w.sys(NrLseek, fd, 0, simfs.SeekSet); errno != OK {
		t.Fatal(errno)
	}
	dst := uint64(w.buf.Base) + 16384
	if got, errno := w.sys(NrRead, fd, dst, 1<<20); errno != OK || !bytes.Equal(w.read(t, dst, got), data) {
		t.Fatalf("chunked file read: %d %v", got, errno)
	}

	var names []string
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("entry-%02d-%s", i, strings.Repeat("x", i%13))
		names = append(names, name)
		if err := w.k.FS.WriteFile("/dir/"+name, nil); err != nil {
			t.Fatal(err)
		}
	}
	listing := strings.Join(names, "\n")
	dirA, dirN := w.putString(t, 64, "/dir")
	for _, bufLen := range []int{0, 1, chunkSize - 1, chunkSize, chunkSize + 1, 2 * chunkSize, len(listing), len(listing) + 50} {
		got, errno := w.sys(NrReadDir, dirA, dirN, dst, uint64(bufLen))
		want := listing[:min(bufLen, len(listing))]
		if errno != OK || string(w.read(t, dst, got)) != want {
			t.Fatalf("readdir into %d bytes: %d %v, want the listing's first %d bytes", bufLen, got, errno, len(want))
		}
	}
	if _, errno := w.sys(NrReadDir, dirA, dirN, unmapped, 64); errno != EFAULT {
		t.Fatalf("readdir into unmapped buffer: %v, want EFAULT", errno)
	}

	// getrandom: a faulted call still advances the generator by its
	// length, so the stream reads on exactly where it would have.
	want := make([]byte, 5*chunkSize)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range want {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		want[i] = byte((x * 0x2545F4914F6CDD1D) >> 56)
	}
	if got, errno := w.sys(NrGetrandom, dst, 2*chunkSize+3); errno != OK || !bytes.Equal(w.read(t, dst, got), want[:2*chunkSize+3]) {
		t.Fatalf("getrandom: %d %v, or bytes differ from the generator", got, errno)
	}
	if _, errno := w.sys(NrGetrandom, unmapped, chunkSize); errno != EFAULT {
		t.Fatalf("getrandom into unmapped buffer: %v, want EFAULT", errno)
	}
	rest := uint64(len(want)) - (3*chunkSize + 3)
	if got, errno := w.sys(NrGetrandom, dst, rest); errno != OK || !bytes.Equal(w.read(t, dst, got), want[3*chunkSize+3:]) {
		t.Fatalf("getrandom after a fault: %d %v, or bytes differ from the generator", got, errno)
	}
}

// TestConnCopyZeroAlloc pins the byte path: once warm, a 13 KiB write
// through one injected conn and the read of it through the other
// allocate nothing — the kernel copies between the address space and
// the stream's pooled blocks.
func TestConnCopyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	w := newWorld(t)
	a, b := simnet.Pair()
	wfd, rfd := uint64(w.p.InjectConn(a)), uint64(w.p.InjectConn(b))
	const size = 13 * 1024
	src, dst := uint64(w.buf.Base), uint64(w.buf.Base)+size
	roundTrip := func() {
		if got, errno := w.sys(NrSend, wfd, src, size); errno != OK || got != size {
			t.Fatalf("send: %d %v", got, errno)
		}
		if got, errno := w.sys(NrRecv, rfd, dst, size); errno != OK || got != size {
			t.Fatalf("recv: %d %v", got, errno)
		}
	}
	roundTrip() // warm the block pool
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("13 KiB send+recv allocates %.1f objects/op, want 0", allocs)
	}
}
