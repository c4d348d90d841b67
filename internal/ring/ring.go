// Package ring is the batched syscall submission/completion ring: an
// io_uring-shaped amortization of the paper's §6 per-syscall overhead.
// Enclosed code queues syscall entries (number + arguments + a user
// tag) into a fixed-depth submission queue; the enforcement layer
// drains the whole batch under one filter pass and one virtual trap —
// and on LB_VTX one VM exit for the entire batch — then posts one
// completion per entry with its errno. A mid-batch filter denial
// behaves exactly like sequential execution: entries before it
// complete, the denial faults or audits through the usual machinery,
// and later entries complete with ECANCELED.
//
// The package is a plain data structure plus accounting; the drain
// semantics live in internal/litterbox (SyscallBatch), which keeps the
// ring free of enforcement-layer imports and usable from any layer
// above the kernel.
package ring

import (
	"fmt"

	"github.com/litterbox-project/enclosure/internal/kernel"
)

// Entry is one submission-queue element: a syscall the submitter wants
// executed, plus a caller-chosen tag echoed on its completion. Runtime
// marks a trusted language-runtime call (netpoller futexes, deadline
// clocks): it dispatches unfiltered, as a sequential runtime syscall
// does.
type Entry struct {
	Nr      kernel.Nr
	Args    [6]uint64
	Tag     uint64
	Runtime bool
}

// Completion is one completion-queue element. Errno is ECANCELED when
// an earlier entry of the same batch was denied by the filter.
type Completion struct {
	Tag   uint64
	Ret   uint64
	Errno kernel.Errno
}

// Stats is the ring's cumulative accounting.
type Stats struct {
	Batches    int64 // drains submitted
	Entries    int64 // entries submitted across all drains
	Canceled   int64 // completions posted with ECANCELED
	CQOverflow int64 // completions dropped because the CQ was at depth
}

// Ring is one worker's submission/completion ring. It is not
// concurrency-safe: each engine worker (or serial task) owns its own,
// mirroring how io_uring rings are per-thread in practice.
type Ring struct {
	depth int
	sq    []Entry
	cq    []Completion
	stats Stats
}

// New returns a ring with the given submission-queue depth.
func New(depth int) *Ring {
	if depth <= 0 {
		panic(fmt.Sprintf("ring: depth must be positive, got %d", depth))
	}
	return &Ring{depth: depth, sq: make([]Entry, 0, depth)}
}

// Depth returns the submission-queue capacity.
func (r *Ring) Depth() int { return r.depth }

// Full reports whether the submission queue is at capacity; the next
// Submit requires a drain first.
func (r *Ring) Full() bool { return len(r.sq) == r.depth }

// Submit queues one entry. It reports false when the queue is full and
// the caller must drain before retrying — the fixed-depth backpressure
// of a real ring.
func (r *Ring) Submit(e Entry) bool {
	if len(r.sq) == r.depth {
		return false
	}
	r.sq = append(r.sq, e)
	return true
}

// Take removes and returns the queued batch in submission order,
// leaving the submission queue empty. The batch is a copy: a
// completion handler that submits new entries mid-drain grows a fresh
// submission queue and cannot corrupt the in-flight batch the drain is
// still iterating.
func (r *Ring) Take() []Entry {
	if len(r.sq) == 0 {
		return nil
	}
	batch := append([]Entry(nil), r.sq...)
	r.sq = r.sq[:0]
	r.stats.Batches++
	r.stats.Entries += int64(len(batch))
	return batch
}

// Post appends completions to the completion queue, which is bounded at
// the ring's depth like a real io_uring CQ. Completions that would
// overflow the bound are dropped newest-first and counted in
// Stats.CQOverflow — the caller kept submitting without reaping.
func (r *Ring) Post(cs []Completion) {
	for _, c := range cs {
		if c.Errno == kernel.ECANCELED {
			r.stats.Canceled++
		}
		if len(r.cq) >= r.depth {
			r.stats.CQOverflow++
			continue
		}
		r.cq = append(r.cq, c)
	}
}

// Reap removes and returns every posted completion, oldest first.
func (r *Ring) Reap() []Completion {
	out := r.cq
	r.cq = nil
	return out
}

// Stats returns the cumulative accounting.
func (r *Ring) Stats() Stats { return r.stats }

// Reset clears both queues (the stats survive): a fault mid-batch
// abandons in-flight state the way a domain reset abandons the task.
func (r *Ring) Reset() {
	r.sq = r.sq[:0]
	r.cq = nil
}
