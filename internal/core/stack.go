package core

// Split stacks (§5.1): "the Go scheduler enclosure-extension ...
// relies on split-stacks to isolate frames preceding the enclosure's
// call." In this model, stack values a function wants in simulated
// memory are carved with StackAlloc out of the *current package's*
// arena; entering an enclosure starts a fresh frame whose allocations
// belong to the closure's own package. Frames preceding the call
// therefore live in memory the enclosure's view does not include — a
// caller's stack locals are unaddressable inside the enclosure, and
// everything a frame allocated is released when it pops.

// stackFrame records one split-stack segment's live allocations.
type stackFrame struct {
	refs []Ref
}

// StackAlloc allocates n bytes of simulated stack in the current
// split-stack frame. The memory lives in the current package's arena
// and is released automatically when the frame pops (for the outermost
// frame: when the task's body returns).
func (t *Task) StackAlloc(n uint64) Ref {
	defer t.leave(t.enter())
	t.checkAlive()
	if len(t.frames) == 0 {
		t.pushFrame()
	}
	r := t.Alloc(n)
	f := &t.frames[len(t.frames)-1]
	f.refs = append(f.refs, r)
	return r
}

// pushFrame starts a fresh split-stack segment (enclosure entry). A
// segment slot popped earlier is reused with its refs array emptied.
func (t *Task) pushFrame() {
	n := len(t.frames)
	if n == cap(t.frames) {
		t.frames = append(t.frames, stackFrame{})
		return
	}
	t.frames = t.frames[:n+1]
	t.frames[n].refs = t.frames[n].refs[:0]
}

// popFrame releases the segment's allocations (enclosure return). The
// program may already be dead from a fault; freeing is then moot.
func (t *Task) popFrame() {
	if len(t.frames) == 0 {
		return
	}
	f := &t.frames[len(t.frames)-1]
	t.frames = t.frames[:len(t.frames)-1]
	if _, dead := t.prog.lb.Aborted(); dead {
		return
	}
	for i := len(f.refs) - 1; i >= 0; i-- {
		t.Free(f.refs[i])
	}
}
