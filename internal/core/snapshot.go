package core

import (
	"errors"
	"sync"

	"github.com/litterbox-project/enclosure/internal/alloc"
	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/snapstart"
)

// Template is a built program captured as a warm-enclosure snapshot:
// subsequent programs are produced by cloning it (copy-on-write memory,
// shared verdict tables and compiled artifacts, per-instance kernel and
// backend state) instead of repeating Build's cold path — no linking,
// policy validation, view computation, gadget scanning, or filter
// compilation. The source program may keep running after Snapshot (the
// engine falls back to it when an instance cannot be made): the
// template's memory is a frozen copy-on-write clone of the source's,
// every table the source shares with the template it copies before
// writing, and the template's heap metadata is a private copy over the
// frozen sections.
type Template struct {
	src   *Program
	snap  *snapstart.Template
	heap  *alloc.Heap                // the source heap's metadata at capture
	funcs map[string]map[string]Func // shared copy-on-write with every program
}

// ErrNotSnapshot reports Recycle on a program that was not produced by
// Template.Instantiate.
var ErrNotSnapshot = errors.New("core: program is not a snapshot instance")

// Snapshot captures the program as a clone template. It fails — and the
// caller should fall back to cold builds — when the world is not
// cloneable: an MPK program with virtualised keys, live file
// descriptors, or a non-quiescent network.
func (p *Program) Snapshot() (*Template, error) {
	p.q.Lock()
	defer p.q.Unlock()
	snap, err := snapstart.Capture(snapstart.Parts{
		Space: p.space, Img: p.image, K: p.kernel, Proc: p.proc, LB: p.lb,
	})
	if err != nil {
		return nil, err
	}
	t := &Template{src: p, snap: snap}
	t.heap = p.heap.CloneWith(nil, nil, snap.Remap)
	t.funcs, p.funcsShared = p.funcs, true
	return t, nil
}

// Stats returns (instances cloned, instances recycled) over the
// template's lifetime.
func (t *Template) Stats() (clones, recycles int64) { return t.snap.Stats() }

// Instantiate produces an independent program from the template. The
// instance enforces identically to a cold-built program over the same
// declarations, but costs only state copies.
func (t *Template) Instantiate() (*Program, error) {
	inst, err := t.snap.Instantiate()
	if err != nil {
		return nil, err
	}
	return t.wrap(inst)
}

// Recycle resets a snapshot instance to template state in place and
// returns it, the same *Program, for its next tenant. Every layer
// resets at a cost proportional to what the previous tenant changed
// (see snapstart.Instance.Recycle); on top of that the program's
// counters, runtime CPU, heap metadata and function table return to a
// fresh instance's, and the instance's own worker (InstanceWorker) to
// a fresh worker's, without allocating. Enclosure handles and the
// worker stay valid. So do the host objects of the heap spans the
// tenant mapped: the next tenant's allocations land at the same
// addresses, and take them back instead of building them again.
func (t *Template) Recycle(prog *Program) (*Program, error) {
	if prog.snapInst == nil {
		return nil, ErrNotSnapshot
	}
	if err := prog.snapInst.Recycle(); err != nil {
		return nil, err
	}
	prog.counters.Reset()
	prog.runtimeCPU.Reset()
	prog.heap.ResetTo(t.heap)
	prog.funcs, prog.funcsShared = t.funcs, true
	if prog.worker != nil {
		prog.worker.reset()
	}
	return prog, nil
}

// wrap binds a snapstart instance into a runnable Program: fresh
// counters and runtime CPU, heap metadata cloned with sections remapped
// onto the instance's address space, enclosure handles re-resolved
// against the instance's environment table. Function bodies and
// program-wide policy routing are shared with the template — they are
// code, not state; a dynamic import copies the function table first.
func (t *Template) wrap(inst *snapstart.Instance) (*Program, error) {
	p := t.src
	np := &Program{
		kind:          p.kind,
		graph:         inst.Img.Graph,
		image:         inst.Img,
		space:         inst.Space,
		clock:         inst.Clock,
		counters:      &hw.Counters{},
		kernel:        inst.K,
		proc:          inst.Proc,
		lb:            inst.LB,
		funcs:         t.funcs,
		funcsShared:   true,
		encls:         make(map[string]*Enclosure, len(p.encls)),
		pw:            p.pw,
		engineWorkers: p.engineWorkers,
		ringDepth:     p.ringDepth,
		warmPool:      p.warmPool,
		snapInst:      inst,
	}
	np.runtimeCPU = np.newCPU()
	np.kernel.SetScheduler(&np.q)
	np.heap = t.heap.CloneWith(np.runtimeMmap, np.runtimeTransfer, inst.Remap)
	for name, e := range p.encls {
		env, err := np.lb.EnvForEnclosure(e.id)
		if err != nil {
			return nil, err
		}
		np.encls[name] = &Enclosure{
			prog:    np,
			id:      e.id,
			name:    e.name,
			pkg:     e.pkg,
			declPkg: e.declPkg,
			token:   e.token,
			body:    e.body,
			env:     env,
		}
	}
	return np, nil
}

// WarmPoolStats counts warm-pool traffic.
type WarmPoolStats struct {
	Hits     int64 // Get served a recycled instance from the free-list
	Misses   int64 // Get instantiated a fresh clone
	Discards int64 // Put dropped an instance (full pool or failed recycle)
}

// WarmPool is a bounded free-list of warm program instances over one
// template — the admission-path cache the engine draws per-request
// programs from. Instances are recycled on Put, off the Get critical
// path.
type WarmPool struct {
	t   *Template
	max int

	mu     sync.Mutex
	free   []*Program
	closed bool
	stats  WarmPoolStats
}

// NewPool returns a warm pool keeping at most max idle instances.
func (t *Template) NewPool(max int) *WarmPool {
	if max < 0 {
		max = 0
	}
	return &WarmPool{t: t, max: max}
}

// Get returns a warm program: a recycled instance when the free-list
// has one, a fresh clone otherwise.
func (p *WarmPool) Get() (*Program, error) {
	p.mu.Lock()
	if n := len(p.free); !p.closed && n > 0 {
		prog := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.stats.Hits++
		p.mu.Unlock()
		return prog, nil
	}
	p.stats.Misses++
	p.mu.Unlock()
	return p.t.Instantiate()
}

// Put recycles the program and parks it for the next Get. Programs that
// fail to recycle, or arrive when the pool is full or closed, are
// discarded — the pool never holds a dirty instance.
func (p *WarmPool) Put(prog *Program) {
	if prog == nil {
		return
	}
	p.mu.Lock()
	full := p.closed || len(p.free) >= p.max
	p.mu.Unlock()
	if full {
		p.noteDiscard()
		return
	}
	recycled, err := p.t.Recycle(prog)
	if err != nil {
		p.noteDiscard()
		return
	}
	p.mu.Lock()
	if p.closed || len(p.free) >= p.max {
		p.mu.Unlock()
		p.noteDiscard()
		return
	}
	p.free = append(p.free, recycled)
	p.mu.Unlock()
}

func (p *WarmPool) noteDiscard() {
	p.mu.Lock()
	p.stats.Discards++
	p.mu.Unlock()
}

// Stats returns a snapshot of the pool counters.
func (p *WarmPool) Stats() WarmPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close empties the free-list; later Gets instantiate fresh.
func (p *WarmPool) Close() {
	p.mu.Lock()
	p.closed = true
	p.free = nil
	p.mu.Unlock()
}
