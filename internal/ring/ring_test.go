package ring

import (
	"fmt"
	"testing"

	"github.com/litterbox-project/enclosure/internal/kernel"
)

func TestNewPanicsOnNonPositiveDepth(t *testing.T) {
	for _, depth := range []int{0, -1, -32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", depth)
				}
			}()
			New(depth)
		}()
	}
}

func TestSubmitTakeRoundTrip(t *testing.T) {
	r := New(4)
	if r.Depth() != 4 {
		t.Fatalf("Depth() = %d, want 4", r.Depth())
	}
	for i := 0; i < 4; i++ {
		if !r.Submit(Entry{Nr: kernel.NrGetpid, Tag: uint64(i)}) {
			t.Fatalf("Submit %d rejected before ring was full", i)
		}
	}
	if !r.Full() {
		t.Fatal("ring should be full after depth submissions")
	}
	if r.Submit(Entry{Nr: kernel.NrGetpid, Tag: 99}) {
		t.Fatal("Submit succeeded on a full ring")
	}
	batch := r.Take()
	if len(batch) != 4 {
		t.Fatalf("Take() returned %d entries, want 4", len(batch))
	}
	for i, e := range batch {
		if e.Tag != uint64(i) {
			t.Errorf("batch[%d].Tag = %d, want %d", i, e.Tag, i)
		}
	}
	if len(r.sq) != 0 {
		t.Fatalf("pending = %d after Take, want 0", len(r.sq))
	}
	// The SQ is reusable after Take; the taken batch is an independent
	// copy, so later submissions cannot touch it.
	if !r.Submit(Entry{Nr: kernel.NrRead, Tag: 7}) {
		t.Fatal("Submit rejected after Take emptied the ring")
	}
}

// TestTakeCopyOnResubmit is the aliasing regression test: a completion
// handler that submits new entries mid-drain (while the drain still
// iterates the taken batch) must not corrupt the in-flight batch.
// Before the fix, Take returned a slice sharing the SQ's backing array
// and re-armed the SQ over it, so the next Submit overwrote batch[0].
func TestTakeCopyOnResubmit(t *testing.T) {
	r := New(4)
	r.Submit(Entry{Nr: kernel.NrGetpid, Tag: 1})
	r.Submit(Entry{Nr: kernel.NrGetpid, Tag: 2})
	batch := r.Take()

	// Mid-drain resubmission, as a completion handler would do.
	r.Submit(Entry{Nr: kernel.NrRead, Tag: 99})

	if batch[0].Tag != 1 || batch[0].Nr != kernel.NrGetpid {
		t.Fatalf("in-flight batch corrupted by mid-drain Submit: %+v", batch[0])
	}
	if batch[1].Tag != 2 {
		t.Fatalf("in-flight batch corrupted: %+v", batch[1])
	}
	// The resubmitted entry is its own pending work, not part of the
	// taken batch.
	if len(r.sq) != 1 {
		t.Fatalf("pending = %d, want 1", len(r.sq))
	}
	next := r.Take()
	if len(next) != 1 || next[0].Tag != 99 {
		t.Fatalf("second Take = %+v, want the resubmitted entry", next)
	}
}

// TestPostBoundsCompletionQueue pins the fixed-depth CQ contract:
// completions beyond the ring's depth are dropped newest-first and
// counted in Stats.CQOverflow instead of growing the CQ without bound.
func TestPostBoundsCompletionQueue(t *testing.T) {
	r := New(2)
	cs := []Completion{
		{Tag: 1, Errno: kernel.OK},
		{Tag: 2, Errno: kernel.OK},
		{Tag: 3, Errno: kernel.OK},        // overflows
		{Tag: 4, Errno: kernel.ECANCELED}, // overflows, still counted canceled
	}
	r.Post(cs)
	got := r.Reap()
	if len(got) != 2 || got[0].Tag != 1 || got[1].Tag != 2 {
		t.Fatalf("Reap = %+v, want the oldest 2 completions", got)
	}
	st := r.Stats()
	if st.CQOverflow != 2 {
		t.Fatalf("CQOverflow = %d, want 2", st.CQOverflow)
	}
	if st.Canceled != 1 {
		t.Fatalf("Canceled = %d, want 1 (overflowed completions still audited)", st.Canceled)
	}
	// Reaping frees the bound: the next Post fits again.
	r.Post([]Completion{{Tag: 5, Errno: kernel.OK}})
	if got := r.Reap(); len(got) != 1 || got[0].Tag != 5 {
		t.Fatalf("post-reap Post = %+v, want tag 5", got)
	}
}

func TestPostReapAndCanceledStats(t *testing.T) {
	r := New(8)
	r.Submit(Entry{Nr: kernel.NrGetpid, Tag: 1})
	r.Submit(Entry{Nr: kernel.NrGetpid, Tag: 2})
	r.Take()
	r.Post([]Completion{
		{Tag: 1, Ret: 42, Errno: kernel.OK},
		{Tag: 2, Errno: kernel.ECANCELED},
	})
	got := r.Reap()
	if len(got) != 2 {
		t.Fatalf("Reap() returned %d completions, want 2", len(got))
	}
	if got[0].Tag != 1 || got[0].Ret != 42 || got[0].Errno != kernel.OK {
		t.Errorf("completion 0 = %+v", got[0])
	}
	if got[1].Errno != kernel.ECANCELED {
		t.Errorf("completion 1 errno = %v, want ECANCELED", got[1].Errno)
	}
	if r.Reap() != nil {
		t.Error("second Reap should return nil")
	}
	st := r.Stats()
	if st.Batches != 1 || st.Entries != 2 || st.Canceled != 1 {
		t.Errorf("Stats() = %+v, want {Batches:1 Entries:2 Canceled:1}", st)
	}
}

func TestResetClearsQueuesKeepsStats(t *testing.T) {
	r := New(4)
	r.Submit(Entry{Nr: kernel.NrGetpid, Tag: 1})
	r.Take()
	r.Post([]Completion{{Tag: 1, Errno: kernel.OK}})
	r.Submit(Entry{Nr: kernel.NrGetpid, Tag: 2})
	r.Reset()
	if len(r.sq) != 0 {
		t.Errorf("pending = %d after Reset, want 0", len(r.sq))
	}
	if r.Reap() != nil {
		t.Error("Reap() after Reset should return nil")
	}
	st := r.Stats()
	if st.Batches != 1 || st.Entries != 1 {
		t.Errorf("Stats() = %+v after Reset, want batches/entries preserved", st)
	}
}

func TestTakeEmptyIsNoStat(t *testing.T) {
	r := New(2)
	if got := r.Take(); len(got) != 0 {
		t.Fatalf("Take() on empty ring returned %d entries", len(got))
	}
	if st := r.Stats(); st.Batches != 0 {
		t.Errorf("empty Take counted a batch: %+v", st)
	}
}

// TestDrainInPlace: Drain hands fn the batch in place and zeroed
// completion slots; a mid-drain Submit moves the SQ to fresh storage
// rather than overwrite the batch fn is still reading; and once warm a
// submit/drain/reap cycle allocates nothing.
func TestDrainInPlace(t *testing.T) {
	r := New(4)
	r.Submit(Entry{Nr: kernel.NrGetpid, Tag: 1})
	r.Submit(Entry{Nr: kernel.NrGetpid, Tag: 2})
	echo := func(batch []Entry, out []Completion) error {
		for i, e := range batch {
			if out[i] != (Completion{}) {
				return fmt.Errorf("slot %d not zeroed: %+v", i, out[i])
			}
			out[i] = Completion{Tag: e.Tag}
		}
		return nil
	}
	err := r.Drain(func(batch []Entry, out []Completion) error {
		r.Submit(Entry{Nr: kernel.NrRead, Tag: 99})
		return echo(batch, out)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Reap(); len(got) != 2 || got[0].Tag != 1 || got[1].Tag != 2 {
		t.Fatalf("Reap = %+v, want tags 1 and 2", got)
	}
	if err := r.Drain(echo); err != nil {
		t.Fatal(err)
	}
	if got := r.Reap(); len(got) != 1 || got[0].Tag != 99 {
		t.Fatalf("Reap = %+v, want the entry submitted mid-drain", got)
	}
	if err := r.Drain(echo); err != nil || r.Reap() != nil {
		t.Fatal("Drain of an empty ring posted completions")
	}
	cycle := func() {
		r.Submit(Entry{Nr: kernel.NrGetpid, Tag: 7})
		r.Submit(Entry{Nr: kernel.NrGetuid, Tag: 8})
		if err := r.Drain(echo); err != nil {
			t.Fatal(err)
		}
		if got := r.Reap(); len(got) != 2 || got[1].Tag != 8 {
			t.Fatalf("Reap = %+v", got)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("submit/drain/reap allocates %.1f objects/op, want 0", allocs)
	}
	if st := r.Stats(); st.Batches != 104 || st.Entries != 207 {
		t.Errorf("Stats = %+v, want 104 batches of 207 entries (AllocsPerRun runs once more)", st)
	}
}
