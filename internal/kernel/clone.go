package kernel

import (
	"errors"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/mem"
)

// ErrLiveFDs is returned by Proc.CloneInto when the process still holds
// descriptors that reference live kernel objects the snapshot cannot
// duplicate (connections, listeners, unconnected sockets, open files).
// Snapshot capture requires a quiescent fd table — templates are taken
// post-init, before the program opens anything.
var ErrLiveFDs = errors.New("kernel: cannot clone a process with open descriptors")

// Clone returns an independent kernel over the cloned address space and
// the clone's own clock: the filesystem is shared copy-on-write (the
// first mutation on either side copies it), the network namespace is
// copied, the mmap span registry is remapped through secMap (template
// section -> clone section; nil keeps every section) and journaled for
// ResetTo, the deterministic entropy cursor carries over so a cloned
// world draws the same getrandom sequence a cold build would, and the
// installed filter state is shared — the compiled artifact is
// immutable, exactly the seccomp artifacts cache's contract.
func (k *Kernel) Clone(space *mem.AddressSpace, clock *hw.Clock, secMap map[*mem.Section]*mem.Section) (*Kernel, error) {
	net, err := k.Net.Clone()
	if err != nil {
		return nil, err
	}
	c := &Kernel{
		FS:        k.FS.Share(),
		Net:       net,
		clock:     clock,
		space:     space,
		rng:       k.rng,
		spans:     make(map[mem.Addr]*mem.Section, len(k.spans)),
		nspan:     k.nspan,
		spanUndo:  make(map[mem.Addr]*mem.Section),
		spanBirth: k.nspan,
	}
	for base, sec := range k.spans {
		if ns, ok := secMap[sec]; ok {
			c.spans[base] = ns
		} else {
			c.spans[base] = sec
		}
	}
	c.filter, c.fastOff, c.crossCheck, c.ringCrossCheck = k.filter, k.fastOff, k.crossCheck, k.ringCrossCheck
	// pkeys and the trace source are backend wiring: the enforcement
	// layer's clone re-installs both against the new kernel.
	return c, nil
}

// ResetTo rewinds a kernel cloned from src to src's state in place, at
// the cost of what changed since: the span journal is replayed (the
// names of the spans mapped since birth are kept for the next tenant's
// mmaps), the filesystem re-points at src's copy-on-write, the network
// namespace and entropy and span cursors rewind, and the filter state (an
// intersection environment may have reloaded it) and the fast-path
// counters return to a fresh clone's. pkeys and the trace source stay:
// they are the enforcement layer's wiring of this kernel.
func (k *Kernel) ResetTo(src *Kernel) {
	k.FS.ResetTo(src.FS)
	k.Net.ResetTo(src.Net)
	for base, prev := range k.spanUndo {
		if prev == nil {
			delete(k.spans, base)
		} else {
			k.spans[base] = prev
		}
	}
	clear(k.spanUndo)
	k.rng, k.nspan = src.rng, src.nspan
	k.filter, k.fastOff, k.crossCheck, k.ringCrossCheck = src.filter, src.fastOff, src.crossCheck, src.ringCrossCheck
	k.divergences, k.fastVerdicts, k.ringDivergences = 0, 0, 0
}

// CloneInto duplicates the process identity onto a cloned kernel. Only
// a quiescent fd table (no open descriptors) can be captured; the fd
// cursor carries over so descriptor numbering matches a cold build.
func (p *Proc) CloneInto(k *Kernel) (*Proc, error) {
	if len(p.fds) > 0 {
		return nil, ErrLiveFDs
	}
	return &Proc{
		k: k, UID: p.UID, PID: p.PID, HostIP: p.HostIP,
		fds: make(map[int]*fdEntry), nextFD: p.nextFD,
		exited: p.exited, code: p.code, nonBlock: p.nonBlock,
	}, nil
}

// ResetTo returns a process cloned from src to src's state in place:
// the fd table is emptied without closing what it held (the tenant's
// descriptors die with the tenant, as a discarded clone's would) and
// the cursor, exit status and blocking mode rewind.
func (p *Proc) ResetTo(src *Proc) {
	clear(p.fds)
	p.nextFD, p.exited, p.code, p.nonBlock = src.nextFD, src.exited, src.code, src.nonBlock
}

// Reset returns a process made by NewProc to NewProc's state in place:
// the fd table is emptied without closing what it held, the next
// descriptor is 3 again, and the exit status and blocking mode clear.
// A recycled warm instance resets its worker's process this way.
func (p *Proc) Reset() {
	clear(p.fds)
	p.nextFD, p.exited, p.code, p.nonBlock = 3, false, 0, false
}
