// Package simfs is the in-memory filesystem behind the simulated
// kernel's file system calls. The paper's attack studies (§6.5) revolve
// around malicious packages reading local secrets — SSH private keys, GPG
// keys — from the file system; simfs provides that attack surface without
// touching the host.
package simfs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
)

// Open flags (subset of POSIX).
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreat  = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
)

// Errors mirror the errno conditions the kernel translates.
var (
	ErrNotExist  = errors.New("simfs: no such file or directory")
	ErrExist     = errors.New("simfs: file exists")
	ErrIsDir     = errors.New("simfs: is a directory")
	ErrNotDir    = errors.New("simfs: not a directory")
	ErrBadFlags  = errors.New("simfs: invalid open flags")
	ErrReadOnly  = errors.New("simfs: file not open for writing")
	ErrWriteOnly = errors.New("simfs: file not open for reading")
	ErrClosed    = errors.New("simfs: file already closed")
)

type inode struct {
	mu   sync.RWMutex
	data []byte
	dir  bool
}

// FS is a flat-namespace in-memory filesystem with directory semantics
// derived from path prefixes. Safe for concurrent use.
type FS struct {
	mu     sync.RWMutex
	inodes map[string]*inode

	// shared marks inodes (the table and every inode in it) as aliased
	// with another FS (see Share): the next mutation copies them first.
	shared bool
}

// New returns a filesystem containing only the root directory.
func New() *FS {
	return &FS{inodes: map[string]*inode{"/": {dir: true}}}
}

func clean(p string) string {
	p = path.Clean("/" + p)
	return p
}

// MkdirAll creates the directory and any missing parents.
func (fs *FS) MkdirAll(p string) error {
	p = clean(p)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.ownLocked()
	parts := strings.Split(strings.TrimPrefix(p, "/"), "/")
	cur := ""
	for _, part := range parts {
		if part == "" {
			continue
		}
		cur += "/" + part
		if in, ok := fs.inodes[cur]; ok {
			if !in.dir {
				return fmt.Errorf("%w: %s", ErrNotDir, cur)
			}
			continue
		}
		fs.inodes[cur] = &inode{dir: true}
	}
	return nil
}

// WriteFile creates or truncates the file with contents (parents are
// created automatically, as a test convenience).
func (fs *FS) WriteFile(p string, data []byte) error {
	p = clean(p)
	if dir := path.Dir(p); dir != "/" {
		if err := fs.MkdirAll(dir); err != nil {
			return err
		}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.ownLocked()
	if in, ok := fs.inodes[p]; ok {
		if in.dir {
			return fmt.Errorf("%w: %s", ErrIsDir, p)
		}
		in.mu.Lock()
		in.data = append(in.data[:0], data...)
		in.mu.Unlock()
		return nil
	}
	fs.inodes[p] = &inode{data: append([]byte(nil), data...)}
	return nil
}

// ReadFile returns a copy of the file's contents.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	p = clean(p)
	fs.mu.RLock()
	in, ok := fs.inodes[p]
	fs.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	if in.dir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	return append([]byte(nil), in.data...), nil
}

// Remove unlinks a file (directories must be empty).
func (fs *FS) Remove(p string) error {
	p = clean(p)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.ownLocked()
	in, ok := fs.inodes[p]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	if in.dir {
		prefix := p + "/"
		for k := range fs.inodes {
			if strings.HasPrefix(k, prefix) {
				return fmt.Errorf("simfs: directory not empty: %s", p)
			}
		}
	}
	delete(fs.inodes, p)
	return nil
}

// ReadDir lists the immediate children of a directory, sorted.
func (fs *FS) ReadDir(p string) ([]string, error) {
	p = clean(p)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	in, ok := fs.inodes[p]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	if !in.dir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, p)
	}
	prefix := p + "/"
	if p == "/" {
		prefix = "/"
	}
	seen := map[string]bool{}
	var names []string
	for k := range fs.inodes {
		if k == p || !strings.HasPrefix(k, prefix) {
			continue
		}
		rest := strings.TrimPrefix(k, prefix)
		name := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			name = rest[:i]
		}
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// File is an open file handle with its own cursor.
type File struct {
	fs     *FS
	in     *inode
	mu     sync.Mutex
	off    int
	flags  int
	closed bool
}

// Open opens a path with POSIX-ish flags.
func (fs *FS) Open(p string, flags int) (*File, error) {
	p = clean(p)
	accMode := flags & 0x3
	if accMode == 0x3 {
		return nil, ErrBadFlags
	}
	fs.mu.Lock()
	if accMode != ORdonly || flags&OCreat != 0 {
		// Only a read-only handle may keep pointing into a shared table.
		fs.ownLocked()
	}
	in, ok := fs.inodes[p]
	if !ok {
		if flags&OCreat == 0 {
			fs.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
		}
		if dir := path.Dir(p); dir != "/" {
			if parent, pok := fs.inodes[dir]; !pok || !parent.dir {
				fs.mu.Unlock()
				return nil, fmt.Errorf("%w: %s", ErrNotExist, dir)
			}
		}
		in = &inode{}
		fs.inodes[p] = in
	}
	fs.mu.Unlock()
	if in.dir && accMode != ORdonly {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	if flags&OTrunc != 0 && accMode != ORdonly {
		in.mu.Lock()
		in.data = in.data[:0]
		in.mu.Unlock()
	}
	f := &File{fs: fs, in: in, flags: flags}
	return f, nil
}

// Read implements io.Reader over the file cursor.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	if f.flags&0x3 == OWronly {
		return 0, ErrWriteOnly
	}
	f.in.mu.RLock()
	defer f.in.mu.RUnlock()
	if f.off >= len(f.in.data) {
		return 0, errEOF
	}
	n := copy(p, f.in.data[f.off:])
	f.off += n
	return n, nil
}

var errEOF = errors.New("EOF")

// IsEOF reports whether err is the end-of-file condition.
func IsEOF(err error) bool { return errors.Is(err, errEOF) }

// Write implements io.Writer, honouring O_APPEND.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	if f.flags&0x3 == ORdonly {
		return 0, ErrReadOnly
	}
	f.in.mu.Lock()
	defer f.in.mu.Unlock()
	if f.flags&OAppend != 0 {
		f.off = len(f.in.data)
	}
	if f.off > len(f.in.data) {
		f.in.data = append(f.in.data, make([]byte, f.off-len(f.in.data))...)
	}
	n := copy(f.in.data[f.off:], p)
	if n < len(p) {
		f.in.data = append(f.in.data, p[n:]...)
	}
	f.off += len(p)
	return len(p), nil
}

// Size returns the current file length.
func (f *File) Size() int {
	f.in.mu.RLock()
	defer f.in.mu.RUnlock()
	return len(f.in.data)
}

// Seek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Seek repositions the file cursor and returns the new offset.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	f.in.mu.RLock()
	size := int64(len(f.in.data))
	f.in.mu.RUnlock()
	var next int64
	switch whence {
	case SeekSet:
		next = offset
	case SeekCur:
		next = int64(f.off) + offset
	case SeekEnd:
		next = size + offset
	default:
		return 0, ErrBadFlags
	}
	if next < 0 {
		return 0, ErrBadFlags
	}
	f.off = int(next)
	return next, nil
}

// Close releases the handle; further operations fail.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	return nil
}

// Share returns a filesystem aliasing fs's inodes for a warm-enclosure
// snapshot: both sides copy the whole namespace before their next
// mutation (a write-mode open counts), so writes on either side stay
// private while a side that never writes copies nothing. Open File
// handles are not carried over — snapshot capture requires a quiescent
// fd table.
func (fs *FS) Share() *FS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.shared = true
	return &FS{inodes: fs.inodes, shared: true}
}

// ResetTo re-points fs at src's namespace copy-on-write on both sides,
// discarding every file created or written since — a recycled snapshot
// instance's reset in O(1).
func (fs *FS) ResetTo(src *FS) {
	src.mu.Lock()
	inodes := src.inodes
	src.shared = true
	src.mu.Unlock()
	fs.mu.Lock()
	fs.inodes, fs.shared = inodes, true
	fs.mu.Unlock()
}

// ownLocked gives fs a private deep copy of a shared namespace before a
// mutation. Requires the write lock.
func (fs *FS) ownLocked() {
	if !fs.shared {
		return
	}
	own := make(map[string]*inode, len(fs.inodes))
	for p, in := range fs.inodes {
		in.mu.RLock()
		own[p] = &inode{data: append([]byte(nil), in.data...), dir: in.dir}
		in.mu.RUnlock()
	}
	fs.inodes, fs.shared = own, false
}
