// Package snapstart implements warm-enclosure instantiation: build an
// enclosure world once, capture it as a post-initialisation template,
// then serve every subsequent request from a clone instead of a cold
// build. A clone shares everything immutable with the template —
// copy-on-write memory pages, verification-token tables, compiled
// seccomp artifacts, symbol tables, package closures — shares the
// rarely written tables (package graph, clustering and MPK key tables,
// file system) copy-on-write, and copies only what enforcement mutates
// in place: the environments, the backend unit, and the section-bound
// image, span and heap indexes.
//
// A live instance can also be recycled in place (Instance.Recycle), at
// a cost proportional to what its tenant changed, with no layer
// re-copied from the template: memory reverts its dirty pages, the MPK
// unit replays its tag journal, the kernel its span journal, and the
// copy-on-write tables re-point at the template's. VTX and CHERI keep
// their unit when its mutation generation proves it untouched and
// re-copy it otherwise. The bounded free-list of recycled instances the
// engine draws from is core.WarmPool.
//
// Capture does not hand the live source world to its clones: it takes a
// frozen clone of the whole world, memory included, whose shared tables
// the source from then on copies before writing, so a program that
// keeps running after capture (the engine's cold fallback) never shows
// its later writes to instances or recycles.
//
// Correctness contract, proved by the probe corpus (probe.Warm's clone
// and recycled arms): a cloned or recycled instance is digest-identical
// to a cold-built world, and recycling leaks nothing across tenants —
// Revert rolls back every memory write, and kernel/process/backend
// state returns to the pre-tenant template.
package snapstart

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/linker"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mem"
)

// Parts names the pieces of a fully initialised enclosure world a
// template captures. The litterbox's policy must be installed and every
// span the program will use mapped before capture; the kernel must be
// quiescent (no open file descriptors, no live listeners).
type Parts struct {
	Space *mem.AddressSpace
	Img   *linker.Image
	K     *kernel.Kernel
	Proc  *kernel.Proc
	LB    *litterbox.LitterBox
}

// Template is a captured post-init world. It is frozen: its parts are
// a clone of the source world that nothing runs on or writes, over a
// copy-on-write clone of the source's address space, which instances
// clone copy-on-write in turn. Instantiate, Remap and its instances'
// Recycle only read it (the spare instance is under mu), so any number
// of owners may call them at once.
type Template struct {
	parts  Parts
	secMap map[*mem.Section]*mem.Section // source section -> template section

	mu    sync.Mutex
	spare *Instance // the validation instance, handed to the first Instantiate

	clones   atomic.Int64
	recycles atomic.Int64
}

// Instance is one live clone of a template: an independent world that
// enforces identically to a cold build. Not safe for concurrent use by
// multiple requests; recycle or discard between tenants.
type Instance struct {
	Space *mem.AddressSpace
	Img   *linker.Image
	K     *kernel.Kernel
	Proc  *kernel.Proc
	LB    *litterbox.LitterBox
	Clock *hw.Clock

	t      *Template
	secMap map[*mem.Section]*mem.Section
	gen    int64 // recycle count, for tests and stats
}

// Capture freezes a built world as a template. The caller must own the
// source world for the length of the call (in core, hold its run
// token): the frozen copy is taken from it. Capture validates the world
// by producing one clone immediately — a backend that cannot be
// snapshot-cloned (litterbox.ErrNotCloneable), a non-quiescent network,
// or live file descriptors surface here, so callers can fall back to
// cold builds up front. The validation instance is not wasted: the
// first Instantiate returns it.
func Capture(p Parts) (*Template, error) {
	if p.Space == nil || p.Img == nil || p.K == nil || p.Proc == nil || p.LB == nil {
		return nil, errors.New("snapstart: incomplete parts")
	}
	space, secMap := p.Space.CloneCoW()
	frozen, err := cloneParts(p, space, secMap, hw.NewClock())
	if err != nil {
		return nil, fmt.Errorf("snapstart: world is not cloneable: %w", err)
	}
	t := &Template{parts: frozen, secMap: secMap}
	inst, err := t.newInstance()
	if err != nil {
		return nil, fmt.Errorf("snapstart: world is not cloneable: %w", err)
	}
	t.spare = inst
	return t, nil
}

// Instantiate produces a fresh instance from the template: CoW memory
// clone, graph/image rebind, kernel and process clone, litterbox clone
// with a freshly cloned backend unit. Cost is O(mutable state), never
// O(build) — no linking, validation, gadget scans, or filter
// compilation.
func (t *Template) Instantiate() (*Instance, error) {
	t.mu.Lock()
	if s := t.spare; s != nil {
		t.spare = nil
		t.mu.Unlock()
		return s, nil
	}
	t.mu.Unlock()
	return t.newInstance()
}

// Stats returns (instances cloned, instances recycled) over the
// template's lifetime.
func (t *Template) Stats() (clones, recycles int64) {
	return t.clones.Load(), t.recycles.Load()
}

func (t *Template) newInstance() (*Instance, error) {
	space, secMap := t.parts.Space.CloneCoW()
	space.Checkpoint() // Recycle reverts to it
	clock := hw.NewClock()
	parts, err := cloneParts(t.parts, space, secMap, clock)
	if err != nil {
		return nil, err
	}
	t.clones.Add(1)
	return &Instance{
		Space: space, Img: parts.Img, K: parts.K, Proc: parts.Proc, LB: parts.LB, Clock: clock,
		t: t, secMap: secMap,
	}, nil
}

// cloneParts clones the non-memory layers of p onto space (whose
// sections secMap maps from p's) and clock:
// graph shared copy-on-write, image rebound, kernel and process cloned,
// and a litterbox clone with its own backend unit.
func cloneParts(p Parts, space *mem.AddressSpace, secMap map[*mem.Section]*mem.Section, clock *hw.Clock) (Parts, error) {
	img := p.Img.CloneWith(space, p.Img.Graph.Share(), secMap)
	k, err := p.K.Clone(space, clock, secMap)
	if err != nil {
		return Parts{}, err
	}
	proc, err := p.Proc.CloneInto(k)
	if err != nil {
		return Parts{}, err
	}
	lb, err := p.LB.CloneInto(litterbox.CloneDeps{Image: img, Kernel: k, Proc: proc, Clock: clock})
	if err != nil {
		return Parts{}, err
	}
	return Parts{Space: space, Img: img, K: k, Proc: proc, LB: lb}, nil
}

// Recycle resets the instance to template state in place — the warm-pool
// fast path — at a cost proportional to what the previous tenant
// changed; no layer is re-copied from the template. Memory reverts its
// dirty pages; the image and package graph drop dynamic imports by
// re-pointing at their birth and template tables; the kernel replays
// its span journal, re-points its file system at the template's
// copy-on-write and rewinds its cursors; the process empties its fd
// table; the litterbox re-publishes its birth environment snapshot,
// unbinds its workers, clears the abort, and resets its backend (MPK
// replays the unit's tag journal; VTX and CHERI keep their unit when
// its generation proves it untouched and re-copy it otherwise). Every
// object keeps its identity, so environment and section pointers taken
// before the recycle stay valid; memory and kernel also keep what
// they made for the sections mapped since birth, which the next
// tenant's mmaps take back.
//
// After Recycle the instance is indistinguishable — digest-identical on
// the probe corpus — from a freshly instantiated clone, except that its
// clock keeps advancing (virtual time is monotonic per instance and
// never influences verdicts).
func (inst *Instance) Recycle() error {
	if err := inst.Space.Revert(); err != nil {
		return err
	}
	t := inst.t
	inst.Img.Reset()
	inst.Img.Graph.ResetTo(t.parts.Img.Graph)
	inst.K.ResetTo(t.parts.K)
	inst.Proc.ResetTo(t.parts.Proc)
	inst.LB.ResetTo(t.parts.LB)
	inst.gen++
	t.recycles.Add(1)
	return nil
}

// Recycles returns how many times this instance has been recycled.
func (inst *Instance) Recycles() int64 { return inst.gen }

// Remap translates a section of the source world to the template's
// copy of it (identity for sections capture did not copy). Callers use
// it, then Instance.Remap, to carry source-relative section handles —
// heap spans, probe buffers — into a clone.
func (t *Template) Remap(sec *mem.Section) *mem.Section { return remap(t.secMap, sec) }

// Remap translates a template section to this instance's corresponding
// cloned section (identity for sections the clone did not remap).
func (inst *Instance) Remap(sec *mem.Section) *mem.Section { return remap(inst.secMap, sec) }

func remap(m map[*mem.Section]*mem.Section, sec *mem.Section) *mem.Section {
	if ns, ok := m[sec]; ok {
		return ns
	}
	return sec
}
