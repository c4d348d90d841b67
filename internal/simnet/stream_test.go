package simnet

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// errCallback is the error a test callback fails a piece with.
var errCallback = errors.New("callback failed")

// streamModel is the reference a block stream must match: a plain byte
// queue with a closed flag.
type streamModel struct {
	buf    []byte
	closed bool
}

// FuzzStream is a differential test of the block stream against
// streamModel. Each op reads three input bytes: the op, then a 16-bit
// size that straddles block boundaries. WriteFrom and ReadTo variants
// fail their callback mid-piece; every read is Nonblock or only blocks
// when the model says data or EOF is there.
func FuzzStream(f *testing.F) {
	f.Add([]byte{0, 0x10, 0, 2, 0x04, 0x01, 0, 0x04, 0x01, 2, 0x30, 0})
	f.Add([]byte{1, 0x09, 0x11, 3, 0x07, 0xff, 4, 0, 0, 2, 0xff, 0xff, 3, 0, 1})
	f.Add([]byte{0, 0xff, 0xff, 0, 0xff, 0xff, 0, 0xff, 0xff, 5, 0x20, 0, 3, 0x20, 0x01, 4, 0, 0, 2, 0xff, 0xff, 2, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		w, r := Pair()
		var m streamModel
		next := byte(0) // the payload is a running byte counter
		payload := func(n int) []byte {
			p := make([]byte, n)
			for i := range p {
				p[i], next = next, next+1
			}
			return p
		}
		for len(ops) >= 3 {
			op, size := ops[0]%6, int(ops[1])<<8|int(ops[2])
			ops = ops[3:]
			switch op {
			case 0, 1: // Write, or a WriteFrom whose fill fails mid-piece
				if !m.closed && len(m.buf)+size > streamBufSize {
					size = streamBufSize - len(m.buf) // a fuller write would block
				}
				p := payload(size)
				var n int
				var err error
				failAt := -1
				if op == 0 {
					n, err = w.Write(p)
				} else {
					failAt = size / 2
					n, err = w.WriteFrom(size, func(dst []byte, off int) error {
						if off+len(dst) > failAt {
							copy(dst, p[off:failAt]) // part of the piece, then fail
							return errCallback
						}
						copy(dst, p[off:])
						return nil
					})
				}
				switch {
				case m.closed && size > 0: // an empty write succeeds even then
					if n != 0 || !errors.Is(err, ErrClosed) {
						t.Fatalf("write after close: %d %v", n, err)
					}
					continue
				case failAt >= 0 && size > 0:
					if !errors.Is(err, errCallback) || n > failAt || n+blockSize <= failAt {
						t.Fatalf("WriteFrom failing at %d of %d: %d %v", failAt, size, n, err)
					}
				case n != size || err != nil:
					t.Fatalf("write %d: %d %v", size, n, err)
				}
				m.buf = append(m.buf, p[:n]...)
			case 2, 3: // Read, or a ReadTo whose drain fails mid-piece
				block := op == 2 && (len(m.buf) > 0 || m.closed)
				got := make([]byte, size)
				failAt := -1
				if op == 3 {
					failAt = size / 2
				}
				n, err := r.ReadTo(size, IOFlags{Nonblock: !block}, func(src []byte, off int) error {
					if failAt >= 0 && off+len(src) > failAt {
						return errCallback
					}
					copy(got[off:], src)
					return nil
				})
				switch {
				case len(m.buf) == 0 && m.closed:
					if n != 0 || !errors.Is(err, ErrClosed) {
						t.Fatalf("read at EOF: %d %v", n, err)
					}
					continue
				case len(m.buf) == 0:
					if n != 0 || !errors.Is(err, ErrWouldBlock) {
						t.Fatalf("nonblocking read of an empty stream: %d %v", n, err)
					}
					continue
				case failAt >= 0 && failAt < min(size, len(m.buf)):
					if !errors.Is(err, errCallback) || n > failAt || n+blockSize <= failAt {
						t.Fatalf("ReadTo failing at %d of %d: %d %v", failAt, size, n, err)
					}
				case n != min(size, len(m.buf)) || err != nil:
					t.Fatalf("read %d of %d buffered: %d %v", size, len(m.buf), n, err)
				}
				if !bytes.Equal(got[:n], m.buf[:n]) {
					t.Fatalf("read %d bytes that differ from the model's", n)
				}
				m.buf = m.buf[n:]
			case 4:
				w.Close()
				m.closed = true
			case 5: // the stream's own accounting
				s := w.wr
				s.mu.Lock()
				held := len(s.blocks) - s.head
				n := s.n
				s.mu.Unlock()
				if n != len(m.buf) {
					t.Fatalf("stream buffers %d bytes, model %d", n, len(m.buf))
				}
				if n == 0 && held != 0 {
					t.Fatalf("a drained stream still holds %d blocks", held)
				}
				if want := (n + blockSize - 1) / blockSize; held > want+1 {
					t.Fatalf("%d bytes held in %d blocks", n, held)
				}
			}
		}
	})
}

// TestStreamBackpressureRace pushes 3×streamBufSize through one stream
// from one writer to one reader, in random sizes over both the slice
// and the callback paths. Run under -race it checks the locking; the
// reader checks every byte and that the stream never buffers more than
// streamBufSize.
func TestStreamBackpressureRace(t *testing.T) {
	w, r := Pair()
	const total = 3 * streamBufSize
	done := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(1))
		var next byte
		for sent := 0; sent < total; {
			n := min(1+rng.Intn(3*blockSize+streamBufSize/8), total-sent)
			var err error
			if rng.Intn(2) == 0 {
				p := make([]byte, n)
				for i := range p {
					p[i], next = next, next+1
				}
				_, err = w.Write(p)
			} else {
				_, err = w.WriteFrom(n, func(dst []byte, off int) error {
					for i := range dst {
						dst[i], next = next, next+1
					}
					return nil
				})
			}
			if err != nil {
				done <- err
				return
			}
			sent += n
		}
		done <- w.Close()
	}()
	rng := rand.New(rand.NewSource(2))
	var want byte
	got := 0
	for {
		n, err := r.ReadTo(1+rng.Intn(2*blockSize+streamBufSize/16), IOFlags{}, func(src []byte, off int) error {
			if r.rd.n > streamBufSize {
				t.Errorf("stream buffers %d bytes, over its %d bound", r.rd.n, streamBufSize)
			}
			for _, b := range src {
				if b != want {
					return errors.New("byte out of order")
				}
				want++
			}
			return nil
		})
		got += n
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatalf("after %d bytes: %v", got, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got != total {
		t.Fatalf("read %d bytes, want %d", got, total)
	}
}

// TestReadToWriteFromSteadyStateZeroAlloc pins the stream's own cost:
// once the block pool is warm, a 13 KiB write and its read allocate
// nothing.
func TestReadToWriteFromSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	w, r := Pair()
	p := make([]byte, 13*1024)
	roundTrip := func() {
		if n, err := w.Write(p); n != len(p) || err != nil {
			t.Fatalf("write: %d %v", n, err)
		}
		if n, err := r.Read(p); n != len(p) || err != nil {
			t.Fatalf("read: %d %v", n, err)
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("13 KiB write+read allocates %.1f objects/op, want 0", allocs)
	}
}
