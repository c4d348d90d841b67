// Package pyfront models the paper's CPython frontend prototype (§5.2):
// a dynamic language where modules are imported lazily, every module
// owns a separate allocator instance with non-overlapping arenas, and —
// crucially — objects co-locate data with metadata: the reference count
// lives in the object header and the generational garbage collector
// embeds a linked-list pointer there too.
//
// That design decision is what §6.4 measures: enforcing read-only
// semantics on an object precludes updating its reference count, so the
// prototype performs "a controlled switch to a trusted environment,
// with full access to program resources, to modify reference counts in
// read-only objects or enqueue on the GC linked lists". In conservative
// mode every refcount/GC operation pays that double switch (~18× on
// the plotting workload, ~1M switches); decoupling data from metadata
// (simulated by mapping the shared module read-write and skipping the
// switches) drops it to ~1.4×, dominated by the enclosure's delayed
// initialisation.
package pyfront

import (
	"fmt"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/mem"
)

// Object header layout: [0,8) refcount, [8,16) GC-list next pointer,
// then — in the unified CPython layout — the payload. In the Separated
// mode (the paper's future work) the header lives in a dedicated
// metadata arena and additionally records the payload's address and
// size at [16,32).
const (
	offRefcount = 0
	offGCNext   = 8
	offDataPtr  = 16
	offDataLen  = 24
	HeaderSize  = 16
	// SepHeaderSize is the detached header's size in Separated mode.
	SepHeaderSize = 32
)

// MetaPkg is the module hosting detached object headers in Separated
// mode; enclosures that manipulate objects receive RW access to it
// while the objects' *data* keeps its own module's protection.
const MetaPkg = "py/meta"

// Mode selects how refcount updates on protected objects are handled.
type Mode int

const (
	// Conservative is the prototype's first approach: every reference
	// count or GC-list operation performs a controlled switch to the
	// trusted environment and back.
	Conservative Mode = iota
	// Decoupled simulates separating data from metadata the way §6.4's
	// second experiment does: the shared module is mapped read-write and
	// the switches are disabled. Fast, but it weakens the secret's
	// integrity protection to get there.
	Decoupled
	// Separated implements the paper's stated future work properly:
	// object headers live in a dedicated metadata arena (MetaPkg) that
	// enclosures map read-write, while object *data* keeps its own
	// module's protection — the secret stays read-only and no trusted
	// switches are needed.
	Separated
	// CheriColocated keeps CPython's unified object layout *and* the
	// secret's read-only protection: a byte-granular write capability
	// over just the object header (the CHERI backend's §8 party trick:
	// "discriminate access to CPython's data and metadata while keeping
	// them co-located"). No switches, no layout change.
	CheriColocated
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Conservative:
		return "conservative"
	case Decoupled:
		return "decoupled"
	case Separated:
		return "separated"
	default:
		return "cheri-colocated"
	}
}

// PyObject is a handle to a refcounted object in simulated memory. In
// the unified layouts the header is inline at Ref.Addr; in Separated
// mode Meta points at the detached header and Ref is pure payload.
type PyObject struct {
	Ref  core.Ref // unified: header+payload; separated: payload only
	Meta core.Ref // separated: the detached header; zero otherwise
}

// headerAddr returns where the object's metadata lives.
func (o PyObject) headerAddr() mem.Addr {
	if !o.Meta.IsZero() {
		return o.Meta.Addr
	}
	return o.Ref.Addr
}

// Payload returns the object's data region.
func (o PyObject) Payload() core.Ref {
	if !o.Meta.IsZero() {
		return o.Ref
	}
	return o.Ref.Slice(HeaderSize, o.Ref.Size-HeaderSize)
}

// Interp is one simulated CPython interpreter bound to a program task
// universe. It tracks per-module GC generation-0 lists host-side (the
// list *links* live in object headers, faithfully).
type Interp struct {
	Mode     Mode
	Switches int64 // controlled trusted-environment round trips (×2 switches each)

	gcHeads map[string]mem.Addr // module -> first object in gen0
}

// NewInterp returns an interpreter in the given metadata mode.
func NewInterp(mode Mode) *Interp {
	return &Interp{Mode: mode, gcHeads: make(map[string]mem.Addr)}
}

// trustedMetaRead performs a metadata load with a controlled switch
// to the trusted environment and back — the §5.2 escape hatch. The
// full cost of two switches is incurred on every access.
func (in *Interp) trustedMetaRead(t *core.Task, addr mem.Addr) uint64 {
	prog := t.Prog()
	lb := prog.LitterBox()
	cur := t.Env()
	if err := lb.Execute(t.CPU(), cur, lb.Trusted()); err != nil {
		panic(err)
	}
	v := t.Load64(addr)
	if err := lb.Execute(t.CPU(), lb.Trusted(), cur); err != nil {
		panic(err)
	}
	in.Switches += 2
	return v
}

// metaUpdate routes one header read-modify-write according to the
// mode: conservative pays one controlled round trip (two switches) per
// operation; decoupled updates in place.
func (in *Interp) metaUpdate(t *core.Task, addr mem.Addr, f func(uint64) uint64) uint64 {
	if in.Mode == Conservative {
		prog := t.Prog()
		lb := prog.LitterBox()
		cur := t.Env()
		if err := lb.Execute(t.CPU(), cur, lb.Trusted()); err != nil {
			panic(err)
		}
		v := f(t.Load64(addr))
		t.Store64(addr, v)
		if err := lb.Execute(t.CPU(), lb.Trusted(), cur); err != nil {
			panic(err)
		}
		in.Switches += 2
		return v
	}
	v := f(t.Load64(addr))
	t.Store64(addr, v)
	return v
}

// NewObject allocates a refcounted object with the given payload in the
// current module's arena and links it into the module's GC generation 0
// (a header write, hence mode-dependent). In Separated mode the header
// is carved out of the dedicated metadata arena instead of being
// co-located with the data.
func (in *Interp) NewObject(t *core.Task, payload []byte) PyObject {
	var obj PyObject
	if in.Mode == Separated {
		data := t.Alloc(uint64(len(payload)) + 1) // +1: zero-size payloads still get an identity
		hdr := t.AllocIn(MetaPkg, SepHeaderSize)
		obj = PyObject{Ref: core.Ref{Addr: data.Addr, Size: uint64(len(payload))}, Meta: hdr}
		t.Store64(hdr.Addr+offDataPtr, uint64(data.Addr))
		t.Store64(hdr.Addr+offDataLen, data.Size)
	} else {
		r := t.Alloc(uint64(len(payload)) + HeaderSize)
		obj = PyObject{Ref: r}
	}
	t.Store64(obj.headerAddr()+offRefcount, 1)
	if len(payload) > 0 {
		t.WriteBytes(obj.Payload(), payload)
	}
	in.gcLink(t, t.CurrentPkg(), obj)
	return obj
}

// gcLink pushes the object onto the module's generation-0 list; the
// next pointer is embedded in the object header, as in CPython.
func (in *Interp) gcLink(t *core.Task, module string, obj PyObject) {
	head := in.gcHeads[module]
	in.metaUpdate(t, obj.headerAddr()+offGCNext, func(uint64) uint64 { return uint64(head) })
	in.gcHeads[module] = obj.headerAddr()
}

// Incref increments the object's reference count.
func (in *Interp) Incref(t *core.Task, obj PyObject) uint64 {
	return in.metaUpdate(t, obj.headerAddr()+offRefcount, func(v uint64) uint64 { return v + 1 })
}

// Decref decrements the reference count; at zero the object becomes
// garbage (collected by the next Collect pass).
func (in *Interp) Decref(t *core.Task, obj PyObject) uint64 {
	return in.metaUpdate(t, obj.headerAddr()+offRefcount, func(v uint64) uint64 {
		if v == 0 {
			panic(fmt.Sprintf("pyfront: negative refcount at %s", obj.headerAddr()))
		}
		return v - 1
	})
}

// Collect sweeps a module's generation-0 list, unlinking and freeing
// objects whose refcount reached zero. The traversal reads and rewrites
// embedded list pointers — every hop is a metadata access. In Separated
// mode the detached header records where the payload to free lives.
func (in *Interp) Collect(t *core.Task, module string) int {
	freed := 0
	var prev mem.Addr
	cur := in.gcHeads[module]
	for cur != 0 {
		rc := in.metaRead(t, cur+offRefcount)
		next := mem.Addr(in.metaRead(t, cur+offGCNext))
		if rc == 0 {
			if prev == 0 {
				in.gcHeads[module] = next
			} else {
				in.metaUpdate(t, prev+offGCNext, func(uint64) uint64 { return uint64(next) })
			}
			if in.Mode == Separated {
				data := mem.Addr(t.Load64(cur + offDataPtr))
				t.Free(core.Ref{Addr: data})
			}
			t.Free(core.Ref{Addr: cur}) // size unused by Free
			freed++
		} else {
			prev = cur
		}
		cur = next
	}
	return freed
}

func (in *Interp) metaRead(t *core.Task, addr mem.Addr) uint64 {
	if in.Mode == Conservative {
		return in.trustedMetaRead(t, addr)
	}
	return t.Load64(addr)
}

// LazyImport models CPython's import machinery (§5.2): modules are
// imported lazily when first referenced; the import registers the
// module and its direct dependencies with LitterBox incrementally, and
// an import triggered inside an enclosure makes the new module
// available to that enclosure's execution environment by default. The
// importCost charge models parsing and compiling the module source.
func (in *Interp) LazyImport(t *core.Task, spec core.PackageSpec) error {
	const importCostPerKLOC = 180_000 // ns: parse+compile, ~0.18ms/kLOC
	t.Compute(int64(spec.LOC) / 1000 * importCostPerKLOC)
	return t.ImportDynamic(spec)
}

// LocalCopy implements the paper's localcopy primitive — "a function
// similar to Python's copy.deepcopy, which creates an object copy in
// the caller's module" — letting a programmer express which module
// encapsulates a piece of data.
func (in *Interp) LocalCopy(t *core.Task, obj PyObject) PyObject {
	payload := t.ReadBytes(obj.Payload())
	return in.NewObject(t, payload)
}
