package probe

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
)

// WorldSpec describes one randomly generated program: its package
// graph, its enclosures and their policies, and the initial owners of
// the pre-mapped heap spans. The four backends build their worlds from
// the same spec, so the memory layouts are bit-identical by
// construction and verdicts are directly comparable.
type WorldSpec struct {
	NPkgs int
	// Imports[i] lists the packages p_j (j < i) that p_i imports.
	Imports [][]int
	Encls   []EnclSpec
	// SpanOwners[i] is the package index span i is transferred to at
	// setup; -1 leaves it in the kernel's pooled arena (HeapOwner).
	SpanOwners []int
}

// EnclSpec is one enclosure declaration: declaring package, policy
// modifiers, syscall category mask, and connect allowlist (nil =
// unrestricted, non-nil = allowlist, empty non-nil = block all — the
// framework's three-way contract).
type EnclSpec struct {
	Pkg     int
	Mods    map[int]litterbox.AccessMod
	Cats    kernel.Category
	Connect []uint32
}

// NSpans is the number of heap spans every world pre-maps.
const NSpans = 3

// maxDepth bounds the enclosure nesting chain a trace may build; deeper
// Prologs are skipped uniformly (see Model.Step).
const maxDepth = 4

// OpKind enumerates trace operations.
type OpKind int

// Trace operation kinds.
const (
	OpProlog      OpKind = iota // enter an enclosure (possibly with a forged token)
	OpEpilog                    // return to the caller's environment
	OpRead                      // probe a data read in the current environment
	OpWrite                     // probe a data write
	OpExec                      // probe a cross-package call
	OpSyscall                   // issue a system call under the current filter
	OpTransfer                  // reassign a heap span to another arena
	OpDynImport                 // register a dynamic package mid-trace
	OpArmErrno                  // arm a transient kernel errno injection
	OpArmTransfer               // arm a transfer interruption
	OpBatch                     // submit a syscall batch through the ring gateway
)

var opKindNames = [...]string{
	"prolog", "epilog", "read", "write", "exec",
	"syscall", "transfer", "dyn-import", "arm-errno", "arm-transfer",
	"batch",
}

// Op is one trace operation. Fields are interpreted per Kind; unused
// fields are zero. Targets are symbolic (package names, span indices)
// so the same op resolves to the same addresses in every world.
type Op struct {
	Kind     OpKind
	Encl     int    // OpProlog, OpDynImport: enclosure ID (1-based)
	BadToken bool   // OpProlog: present a forged call-site token
	Pkg      string // read/write/exec target; transfer destination ("" = HeapOwner); dyn module name
	Sec      int    // read/write: 0 = rodata, 1 = data (when Span < 0)
	Span     int    // read/write target span or transfer subject; -1 = use Pkg/Sec
	Nr       kernel.Nr
	FD       int
	Host     uint32
	Port     uint16
	Len      uint64
	Buf      int // buffer slot: -1 bogus, 0..NSpans-1 span base, NSpans+i = p_i data
	Flags    int
	N        int    // arm ops: fire on the N-th occurrence
	Errno    uint32 // OpArmErrno: the injected errno
	Runtime  bool   // batch sub-entry: dispatch unfiltered (language-runtime call)
	Batch    []Op   // OpBatch: syscall-shaped sub-entries, submitted in order
}

// String renders the op for divergence reports and shrunk reproducers.
func (o Op) String() string {
	switch o.Kind {
	case OpProlog:
		tok := ""
		if o.BadToken {
			tok = " bad-token"
		}
		return fmt.Sprintf("prolog e%d%s", o.Encl, tok)
	case OpEpilog:
		return "epilog"
	case OpRead, OpWrite, OpExec:
		if o.Span >= 0 {
			return fmt.Sprintf("%s span%d", opKindNames[o.Kind], o.Span)
		}
		sec := "rodata"
		if o.Sec == 1 {
			sec = "data"
		}
		if o.Kind == OpExec {
			return fmt.Sprintf("exec %s", o.Pkg)
		}
		return fmt.Sprintf("%s %s.%s", opKindNames[o.Kind], o.Pkg, sec)
	case OpSyscall:
		return fmt.Sprintf("syscall %s(fd=%d host=%#x buf=%d len=%d)", o.Nr.Name(), o.FD, o.Host, o.Buf, o.Len)
	case OpTransfer:
		dest := o.Pkg
		if dest == "" {
			dest = kernel.HeapOwner
		}
		return fmt.Sprintf("transfer span%d -> %s", o.Span, dest)
	case OpDynImport:
		return fmt.Sprintf("dyn-import %s visible-to e%d", o.Pkg, o.Encl)
	case OpArmErrno:
		return fmt.Sprintf("arm-errno n=%d errno=%d", o.N, o.Errno)
	case OpArmTransfer:
		return fmt.Sprintf("arm-transfer n=%d", o.N)
	case OpBatch:
		names := make([]string, len(o.Batch))
		for i, s := range o.Batch {
			names[i] = s.Nr.Name()
			if s.Runtime {
				names[i] += "!" // runtime entry: dispatches unfiltered
			}
		}
		return fmt.Sprintf("batch[%s]", strings.Join(names, " "))
	}
	return "?"
}

// Trace is one complete probe program: a world layout plus an operation
// sequence, both derived from Seed.
type Trace struct {
	Seed uint64
	Spec WorldSpec
	Ops  []Op
}

// hostPool is the set of connect destinations allowlists draw from, so
// generated connects sometimes match the generated policy.
var hostPool = []uint32{0x0A000001, 0x0A000002, 0x0A000003, 0x0A000004}

// sysPool is the generated system-call set. Deliberate exclusions, each
// a documented asymmetry rather than a bug:
//   - unknown numbers: the MPK BPF filter denies them for the trusted
//     environment while the in-process monitors allow-then-ENOSYS;
//   - exit/kill: terminating the simulated process mid-trace;
//   - seccomp/pkey_*: meta-calls that reconfigure enforcement itself;
//   - mmap/munmap: span lifetime is driven by OpTransfer instead;
//   - clock_gettime/nanosleep/futex: results depend on per-backend
//     virtual time, which legitimately differs.
var sysPool = []kernel.Nr{
	kernel.NrRead, kernel.NrWrite, kernel.NrClose, kernel.NrOpen,
	kernel.NrUnlink, kernel.NrMkdir, kernel.NrReadDir, kernel.NrStat,
	kernel.NrSocket, kernel.NrBind, kernel.NrListen, kernel.NrAccept,
	kernel.NrConnect, kernel.NrShutdown, kernel.NrSend, kernel.NrRecv,
	kernel.NrMprotect, kernel.NrGetuid, kernel.NrGetpid,
	kernel.NrGetrandom, kernel.NrLseek, kernel.NrDup, kernel.NrPipe,
}

// injectableErrnos are the transient errnos OpArmErrno may script.
// ESECCOMP is excluded: the framework reserves it as the filter-denial
// marker, so injecting it would fabricate a policy violation.
var injectableErrnos = []uint32{
	uint32(kernel.EPERM), uint32(kernel.EBADF),
	uint32(kernel.EAGAIN), uint32(kernel.EINVAL),
}

// pkgNames and dynNames spell the package names a generated trace
// uses (at most 8 static packages, 2 dynamic imports), which every
// link, model and operation looks up again; a larger index, as in a
// spec from the wire, builds its name.
var pkgNames, dynNames = indexedNames("p", 8), indexedNames("dyn", 2)

func indexedNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}

func pkgName(i int) string {
	if uint(i) < uint(len(pkgNames)) {
		return pkgNames[i]
	}
	return "p" + strconv.Itoa(i)
}

func dynName(i int) string {
	if uint(i) < uint(len(dynNames)) {
		return dynNames[i]
	}
	return "dyn" + strconv.Itoa(i)
}

// genSpec derives a world layout from the rng.
func genSpec(r *rng) WorldSpec {
	spec := WorldSpec{NPkgs: 4 + r.intn(5)}
	spec.Imports = make([][]int, spec.NPkgs)
	for i := 0; i < spec.NPkgs; i++ {
		for j := 0; j < i; j++ {
			if r.intn(3) == 0 {
				spec.Imports[i] = append(spec.Imports[i], j)
			}
		}
	}
	nEncl := 1 + r.intn(3)
	for e := 0; e < nEncl; e++ {
		es := EnclSpec{Pkg: r.intn(spec.NPkgs), Mods: map[int]litterbox.AccessMod{}}
		for i := 0; i < spec.NPkgs; i++ {
			switch r.intn(5) {
			case 0:
				es.Mods[i] = litterbox.ModR + litterbox.AccessMod(r.intn(3))
			case 1:
				es.Mods[i] = litterbox.ModU
			}
		}
		es.Cats = kernel.Category(r.next() & 0xff)
		if r.pct(50) {
			es.Cats |= kernel.CatNet
		}
		switch {
		case r.pct(50):
			es.Connect = nil
		case r.pct(85):
			n := 1 + r.intn(3)
			es.Connect = []uint32{}
			for i := 0; i < n; i++ {
				es.Connect = append(es.Connect, hostPool[r.intn(len(hostPool))])
			}
		default:
			es.Connect = []uint32{} // non-nil empty: block every connect
		}
		spec.Encls = append(spec.Encls, es)
		// With some probability the next enclosure shares this view but
		// not this syscall policy — the PKRU-aliasing shape that forced
		// the filter's color bits.
		if e+1 < nEncl && r.pct(30) {
			twin := EnclSpec{Pkg: es.Pkg, Mods: map[int]litterbox.AccessMod{}}
			for k, v := range es.Mods {
				twin.Mods[k] = v
			}
			twin.Cats = kernel.Category(r.next() & 0xff)
			if r.pct(50) {
				twin.Connect = []uint32{hostPool[r.intn(len(hostPool))]}
			}
			spec.Encls = append(spec.Encls, twin)
			e++
		}
	}
	for i := 0; i < NSpans; i++ {
		spec.SpanOwners = append(spec.SpanOwners, r.intn(spec.NPkgs+1)-1)
	}
	return spec
}

// Gen derives a complete trace from a seed: a world spec plus nOps
// operations. The generator tracks the model's nesting depth and import
// set so most emitted ops are executable, but executability is never
// assumed — the Model skips impossible ops uniformly, which keeps every
// subsequence of a trace valid (the property shrinking relies on).
func Gen(seed uint64, nOps int) Trace {
	r := newRNG(seed)
	spec := genSpec(r)
	tr := Trace{Seed: seed, Spec: spec, Ops: make([]Op, 0, max(nOps, 0))}

	depth := 0
	dyn := 0
	var imported []string
	armedErrno, armedTransfer := false, false

	// readTarget picks a package/section or span target for memory ops.
	memTarget := func(op *Op) {
		if r.pct(30) {
			op.Span = r.intn(NSpans)
			return
		}
		op.Span = -1
		// All static packages plus user, super, and any imported module.
		pool := make([]string, 0, spec.NPkgs+2+len(imported))
		for i := 0; i < spec.NPkgs; i++ {
			pool = append(pool, pkgName(i))
		}
		pool = append(pool, pkggraph.UserPkg, pkggraph.SuperPkg)
		pool = append(pool, imported...)
		op.Pkg = pool[r.intn(len(pool))]
		op.Sec = r.intn(2)
	}

	// genSys fills one syscall-shaped op (used standalone and as a batch
	// sub-entry).
	genSys := func() Op {
		op := Op{Kind: OpSyscall, Span: -1}
		op.Nr = sysPool[r.intn(len(sysPool))]
		op.FD = r.intn(10)
		if r.pct(60) {
			op.Host = hostPool[r.intn(len(hostPool))]
		} else {
			op.Host = uint32(r.next())
		}
		op.Port = uint16(r.next())
		op.Len = uint64(1 + r.intn(64))
		op.Buf = r.intn(NSpans+spec.NPkgs+1) - 1
		if r.pct(50) {
			op.Flags = kernel.OCreat | kernel.ORdwr
		} else {
			op.Flags = kernel.ORdonly
		}
		return op
	}

	for len(tr.Ops) < nOps {
		op := Op{Span: -1}
		roll := r.intn(100)
		switch {
		case roll < 18 && depth < maxDepth:
			op.Kind = OpProlog
			op.Encl = 1 + r.intn(len(spec.Encls))
			op.BadToken = r.pct(12)
			if !op.BadToken {
				depth++
			}
		case roll < 32 && depth > 0:
			op.Kind = OpEpilog
			depth--
		case roll < 50:
			op.Kind = OpRead
			memTarget(&op)
		case roll < 60:
			op.Kind = OpWrite
			memTarget(&op)
		case roll < 65:
			op.Kind = OpExec
			op.Pkg = pkgName(r.intn(spec.NPkgs))
		case roll < 82:
			if r.pct(25) {
				// Batched submission: 2-6 syscall-shaped entries drained
				// under one filter pass. Entries draw from the full pool,
				// so mid-batch denials (and post-denial cancellation) are
				// generated routinely; some entries ride as unfiltered
				// language-runtime calls.
				op.Kind = OpBatch
				n := 2 + r.intn(5)
				for k := 0; k < n; k++ {
					s := genSys()
					s.Runtime = r.pct(15)
					op.Batch = append(op.Batch, s)
				}
			} else {
				op = genSys()
			}
		case roll < 90:
			op.Kind = OpTransfer
			op.Span = r.intn(NSpans)
			if d := r.intn(spec.NPkgs + 1); d < spec.NPkgs {
				op.Pkg = pkgName(d)
			} // else "": back to the pooled arena
		case roll < 94 && dyn < 2:
			op.Kind = OpDynImport
			op.Pkg = dynName(dyn)
			op.Encl = 1 + r.intn(len(spec.Encls))
			imported = append(imported, op.Pkg)
			dyn++
		case roll < 97 && !armedErrno:
			op.Kind = OpArmErrno
			op.N = 1 + r.intn(6)
			op.Errno = injectableErrnos[r.intn(len(injectableErrnos))]
			armedErrno = true
		case !armedTransfer:
			op.Kind = OpArmTransfer
			op.N = 1 + r.intn(4)
			armedTransfer = true
		default:
			op.Kind = OpRead
			memTarget(&op)
		}
		tr.Ops = append(tr.Ops, op)
	}
	return tr
}
