// Package snapstart implements warm-enclosure instantiation: build an
// enclosure world once, capture it as a post-initialisation template,
// then serve every subsequent request from a clone instead of a cold
// build. A clone shares everything immutable with the template —
// copy-on-write memory pages, verification-token tables, compiled
// seccomp artifacts, symbol tables, package closures — and freshly
// initialises only per-instance mutable state: the address-space dirty
// set, the clock, the kernel (file system, network, RNG cursor), the
// process, and the backend enforcement unit.
//
// A live instance can also be recycled in place (Instance.Recycle):
// its memory is reverted to the snapshot (O(dirty pages)), its kernel
// and litterbox are re-cloned from the template (cheap map copies), and
// its backend hardware unit is adopted as-is when a mutation-generation
// check proves it untouched since birth — the expensive
// page-tag/page-table copies are skipped entirely on the common path.
// The bounded free-list of recycled instances the engine draws from is
// core.WarmPool.
//
// Correctness contract, proved by the probe corpus (probe.Warm's clone
// and recycled arms): a cloned or recycled instance is digest-identical
// to a cold-built world, and recycling leaks nothing across tenants —
// Revert rolls back every memory write, and kernel/process/backend
// state is rebuilt from the pre-tenant template.
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
	Clock *hw.Clock
}

// Template is a captured post-init world. It is frozen: callers must
// not run enclosure code against the template's litterbox after
// capture. Instantiate may be called concurrently.
type Template struct {
	parts Parts

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

// Capture freezes a built world as a template. It validates the world
// by producing one clone immediately — a backend that cannot be
// snapshot-cloned (litterbox.ErrNotCloneable), a non-quiescent network,
// or live file descriptors surface here, so callers can fall back to
// cold builds up front. The validation instance is not wasted: the
// first Instantiate returns it.
func Capture(p Parts) (*Template, error) {
	if p.Space == nil || p.Img == nil || p.K == nil || p.Proc == nil || p.LB == nil {
		return nil, errors.New("snapstart: incomplete parts")
	}
	t := &Template{parts: p}
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
	// CloneCoW serialises on the space's own lock; concurrent
	// instantiations are safe.
	space, secMap := t.parts.Space.CloneCoW()
	clock := hw.NewClock()
	inst := &Instance{Space: space, Clock: clock, t: t, secMap: secMap}
	if err := t.rebuildInto(inst, nil); err != nil {
		return nil, err
	}
	t.clones.Add(1)
	return inst, nil
}

// rebuildInto wires the non-memory layers of an instance from the
// template: image over the instance's space, kernel, process, and
// litterbox. reuse, when non-nil, is the instance's previous litterbox
// whose backend unit may be adopted (generation-checked) on recycle.
func (t *Template) rebuildInto(inst *Instance, reuse *litterbox.LitterBox) error {
	graph := t.parts.Img.Graph.Clone()
	img := t.parts.Img.CloneWith(inst.Space, graph, inst.secMap)
	k, err := t.parts.K.Clone(inst.Space, inst.Clock, inst.secMap)
	if err != nil {
		return err
	}
	proc, err := t.parts.Proc.CloneInto(k)
	if err != nil {
		return err
	}
	lb, err := t.parts.LB.CloneInto(litterbox.CloneDeps{
		Image:  img,
		Kernel: k,
		Proc:   proc,
		Clock:  inst.Clock,
		Reuse:  reuse,
	})
	if err != nil {
		return err
	}
	inst.Img, inst.K, inst.Proc, inst.LB = img, k, proc, lb
	return nil
}

// Recycle resets the instance to template state in place — the warm-pool
// fast path. Memory reverts to the snapshot in O(dirty pages); the
// kernel, process, image binding, and litterbox are re-cloned from the
// template (map copies); the backend's hardware unit is adopted without
// copying when its mutation generation proves it untouched since the
// instance's birth, and re-cloned from the template otherwise. The
// environment snapshot is rebuilt from the template, so any views,
// intersection environments, or dynamic imports the previous tenant
// created are invalidated wholesale.
//
// After Recycle the instance is indistinguishable — digest-identical on
// the probe corpus — from a freshly instantiated clone, except that its
// clock keeps advancing (virtual time is monotonic per instance and
// never influences verdicts).
func (inst *Instance) Recycle() error {
	if err := inst.Space.Revert(); err != nil {
		return err
	}
	if err := inst.t.rebuildInto(inst, inst.LB); err != nil {
		return err
	}
	inst.gen++
	inst.t.recycles.Add(1)
	return nil
}

// Recycles returns how many times this instance has been recycled.
func (inst *Instance) Recycles() int64 { return inst.gen }

// Remap translates a template section to this instance's corresponding
// cloned section (identity for sections the clone did not remap).
// Callers use it to carry template-relative section handles — heap
// spans, probe buffers — into a clone.
func (inst *Instance) Remap(sec *mem.Section) *mem.Section {
	if ns, ok := inst.secMap[sec]; ok {
		return ns
	}
	return sec
}
