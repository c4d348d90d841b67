package simfs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestWriteReadFile(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/a/b/c.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/a/b/c.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if !fs.exists("/a/b") || !fs.exists("/a") {
		t.Fatal("parents not created")
	}
	if _, err := fs.ReadFile("/missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing: %v", err)
	}
	if _, err := fs.ReadFile("/a"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("read dir: %v", err)
	}
}

func TestWriteFileRoundTripProperty(t *testing.T) {
	fs := New()
	f := func(name string, data []byte) bool {
		if name == "" {
			return true
		}
		p := "/p/" + sanitize(name)
		if err := fs.WriteFile(p, data); err != nil {
			return false
		}
		got, err := fs.ReadFile(p)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func sanitize(s string) string {
	out := []byte{}
	for _, c := range []byte(s) {
		if c == '/' || c == 0 || c == '.' {
			c = '_'
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		out = []byte{'x'}
	}
	return string(out)
}

func TestOpenFlags(t *testing.T) {
	fs := New()
	if _, err := fs.Open("/nope", ORdonly); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}
	if _, err := fs.Open("/x", ORdonly|OWronly|ORdwr); !errors.Is(err, ErrBadFlags) {
		t.Fatalf("bad flags: %v", err)
	}
	// O_CREAT in a missing parent fails.
	if _, err := fs.Open("/no/dir/file", OWronly|OCreat); !errors.Is(err, ErrNotExist) {
		t.Fatalf("create in missing dir: %v", err)
	}

	f, err := fs.Open("/new", OWronly|OCreat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(make([]byte, 1)); !errors.Is(err, ErrWriteOnly) {
		t.Fatalf("read write-only: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}

	// O_TRUNC clears; O_APPEND writes at the end regardless of cursor.
	g, err := fs.Open("/new", OWronly|OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 0 {
		t.Fatalf("truncated size %d", g.Size())
	}
	if _, err := g.Write([]byte("12")); err != nil {
		t.Fatal(err)
	}
	_ = g.Close()
	h, _ := fs.Open("/new", OWronly|OAppend)
	if _, err := h.Write([]byte("34")); err != nil {
		t.Fatal(err)
	}
	_ = h.Close()
	got, _ := fs.ReadFile("/new")
	if string(got) != "1234" {
		t.Fatalf("append result %q", got)
	}
}

func TestReadCursorAndEOF(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/f", []byte("abcdef"))
	f, _ := fs.Open("/f", ORdonly)
	buf := make([]byte, 4)
	n, err := f.Read(buf)
	if err != nil || n != 4 || string(buf[:n]) != "abcd" {
		t.Fatalf("first read: %d %v %q", n, err, buf[:n])
	}
	n, err = f.Read(buf)
	if err != nil || n != 2 || string(buf[:n]) != "ef" {
		t.Fatalf("second read: %d %v", n, err)
	}
	if _, err := f.Read(buf); !IsEOF(err) {
		t.Fatalf("EOF: %v", err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write read-only: %v", err)
	}
}

func TestRemoveAndReadDir(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/d/one", nil)
	_ = fs.WriteFile("/d/two", nil)
	_ = fs.WriteFile("/d/sub/three", nil)

	names, err := fs.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "one" || names[1] != "sub" || names[2] != "two" {
		t.Fatalf("ReadDir = %v", names)
	}
	if _, err := fs.ReadDir("/d/one"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("ReadDir on file: %v", err)
	}
	if err := fs.Remove("/d"); err == nil {
		t.Fatal("removed non-empty directory")
	}
	if err := fs.Remove("/d/one"); err != nil {
		t.Fatal(err)
	}
	if fs.exists("/d/one") {
		t.Fatal("file survives Remove")
	}
	if err := fs.Remove("/d/one"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestMkdirAllOverFile(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/a", nil)
	if err := fs.MkdirAll("/a/b"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("mkdir over file: %v", err)
	}
}

// exists reports whether the path names a file or directory.
func (fs *FS) exists(p string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.inodes[clean(p)]
	return ok
}
