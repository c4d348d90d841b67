// Package kernel is the simulated operating-system kernel beneath the
// LitterBox backends: a system-call table with numbered entries grouped
// into the paper's SysFilter categories (§2.2 — "system calls are grouped
// into categories around logical services, e.g., file for filesystem
// operations, net for network access, or mem for calls such as mmap and
// mprotect"), a per-program process abstraction with a file-descriptor
// table, and handlers backed by simfs and simnet. System-call arguments
// that name buffers are simulated virtual addresses. User bytes cross
// into and out of the kernel in exactly one place, the copyIn/copyOut
// pair: conn I/O copies straight between address-space pages and
// simnet's pooled stream blocks, and file, readdir and getrandom I/O
// goes through a fixed stack chunk, so no handler stages a heap copy.
// The pair faults on unmapped pages but checks no permissions yet; the
// calling environment's view check belongs there.
package kernel

import "fmt"

// Nr is a system-call number.
type Nr uint32

// System-call numbers. Values are stable; the seccomp filters compiled by
// LitterBox embed them.
const (
	NrRead Nr = iota + 1
	NrWrite
	NrClose
	NrOpen
	NrUnlink
	NrMkdir
	NrReadDir
	NrStat
	NrSocket
	NrBind
	NrListen
	NrAccept
	NrConnect
	NrShutdown
	NrSend
	NrRecv
	NrMmap
	NrMunmap
	NrMprotect
	NrPkeyAlloc
	NrPkeyFree
	NrPkeyMprotect
	NrGetuid
	NrGetpid
	NrExit
	NrKill
	NrGetrandom
	NrClockGettime
	NrNanosleep
	NrFutex
	NrSeccomp
	NrLseek
	NrDup
	NrPipe
	nrMax
)

// Category is a bitmask of the paper's SysFilter service groups.
type Category uint16

// SysFilter categories.
const (
	CatFile Category = 1 << iota // filesystem namespace operations
	CatIO                        // descriptor I/O: read/write/close
	CatNet                       // sockets
	CatMem                       // address-space management
	CatProc                      // process identity and control
	CatTime                      // clocks and sleeping
	CatSig                       // signals
	CatIPC                       // futexes and other coordination
	// CatNone is the empty filter: no system calls at all (the paper's
	// default enclosure policy).
	CatNone Category = 0
	// CatAll permits every category.
	CatAll Category = 0xffff
)

// Has reports whether c includes every bit of q.
func (c Category) Has(q Category) bool { return c&q == q }

// CategoryNames maps SysFilter spelling to bits, in the paper's syntax.
var CategoryNames = map[string]Category{
	"file": CatFile,
	"io":   CatIO,
	"net":  CatNet,
	"mem":  CatMem,
	"proc": CatProc,
	"time": CatTime,
	"sig":  CatSig,
	"ipc":  CatIPC,
}

// String renders the category set in SysFilter syntax.
func (c Category) String() string {
	if c == CatNone {
		return "none"
	}
	if c == CatAll {
		return "all"
	}
	order := []struct {
		name string
		bit  Category
	}{
		{"net", CatNet}, {"io", CatIO}, {"file", CatFile}, {"mem", CatMem},
		{"proc", CatProc}, {"time", CatTime}, {"sig", CatSig}, {"ipc", CatIPC},
	}
	out := ""
	for _, e := range order {
		if c.Has(e.bit) {
			if out != "" {
				out += ","
			}
			out += e.name
		}
	}
	return out
}

// syscallInfo describes one table entry.
type syscallInfo struct {
	name string
	cat  Category
}

var table = map[Nr]syscallInfo{
	NrRead:         {"read", CatIO},
	NrWrite:        {"write", CatIO},
	NrClose:        {"close", CatIO},
	NrOpen:         {"open", CatFile},
	NrUnlink:       {"unlink", CatFile},
	NrMkdir:        {"mkdir", CatFile},
	NrReadDir:      {"readdir", CatFile},
	NrStat:         {"stat", CatFile},
	NrSocket:       {"socket", CatNet},
	NrBind:         {"bind", CatNet},
	NrListen:       {"listen", CatNet},
	NrAccept:       {"accept", CatNet},
	NrConnect:      {"connect", CatNet},
	NrShutdown:     {"shutdown", CatNet},
	NrSend:         {"send", CatNet},
	NrRecv:         {"recv", CatNet},
	NrMmap:         {"mmap", CatMem},
	NrMunmap:       {"munmap", CatMem},
	NrMprotect:     {"mprotect", CatMem},
	NrPkeyAlloc:    {"pkey_alloc", CatMem},
	NrPkeyFree:     {"pkey_free", CatMem},
	NrPkeyMprotect: {"pkey_mprotect", CatMem},
	NrGetuid:       {"getuid", CatProc},
	NrGetpid:       {"getpid", CatProc},
	NrExit:         {"exit", CatProc},
	NrKill:         {"kill", CatSig},
	NrGetrandom:    {"getrandom", CatProc},
	NrClockGettime: {"clock_gettime", CatTime},
	NrNanosleep:    {"nanosleep", CatTime},
	NrFutex:        {"futex", CatIPC},
	NrSeccomp:      {"seccomp", CatProc},
	NrLseek:        {"lseek", CatIO},
	NrDup:          {"dup", CatIO},
	NrPipe:         {"pipe", CatIPC},
}

// Name returns the syscall's name, or a numeric placeholder.
func (n Nr) Name() string {
	if info, ok := table[n]; ok {
		return info.name
	}
	return fmt.Sprintf("sys_%d", uint32(n))
}

// CategoryOf returns the SysFilter category a syscall belongs to.
func CategoryOf(n Nr) Category {
	if info, ok := table[n]; ok {
		return info.cat
	}
	return CatNone
}

// Numbers returns every defined syscall number in ascending order.
func Numbers() []Nr {
	out := make([]Nr, 0, len(table))
	for n := Nr(1); n < nrMax; n++ {
		if _, ok := table[n]; ok {
			out = append(out, n)
		}
	}
	return out
}

// NumbersIn returns the syscall numbers whose category is included in c.
func NumbersIn(c Category) []Nr {
	var out []Nr
	for _, n := range Numbers() {
		if cat := CategoryOf(n); cat != CatNone && c.Has(cat) {
			out = append(out, n)
		}
	}
	return out
}

// Open flags, re-exported for syscall callers (values match simfs).
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreat  = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
)

// Errno is a simulated kernel error number.
type Errno uint32

// Errno values (deliberately matching the Linux numbers where they exist).
const (
	OK           Errno = 0
	EPERM        Errno = 1
	ENOENT       Errno = 2
	EBADF        Errno = 9
	EAGAIN       Errno = 11
	EACCES       Errno = 13
	EFAULT       Errno = 14
	EEXIST       Errno = 17
	ENOTDIR      Errno = 20
	EISDIR       Errno = 21
	EINVAL       Errno = 22
	EMFILE       Errno = 24
	ENOSYS       Errno = 38
	ENOTSOCK     Errno = 88
	EADDRINUSE   Errno = 98
	ECONNREFUSED Errno = 111
	ECANCELED    Errno = 125 // ring entry canceled by an earlier mid-batch denial
	ESECCOMP     Errno = 255 // this kernel's marker for a filtered syscall
)

// Error implements the error interface.
func (e Errno) Error() string {
	switch e {
	case OK:
		return "ok"
	case EPERM:
		return "EPERM"
	case ENOENT:
		return "ENOENT"
	case EBADF:
		return "EBADF"
	case EAGAIN:
		return "EAGAIN"
	case EACCES:
		return "EACCES"
	case EFAULT:
		return "EFAULT"
	case EEXIST:
		return "EEXIST"
	case ENOTDIR:
		return "ENOTDIR"
	case EISDIR:
		return "EISDIR"
	case EINVAL:
		return "EINVAL"
	case EMFILE:
		return "EMFILE"
	case ENOSYS:
		return "ENOSYS"
	case ENOTSOCK:
		return "ENOTSOCK"
	case EADDRINUSE:
		return "EADDRINUSE"
	case ECONNREFUSED:
		return "ECONNREFUSED"
	case ECANCELED:
		return "ECANCELED"
	case ESECCOMP:
		return "ESECCOMP"
	default:
		return fmt.Sprintf("errno(%d)", uint32(e))
	}
}
