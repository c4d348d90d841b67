package core

import (
	"errors"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/litterbox"
)

// Enclosure is the runtime form of a `with [Policies] func(...)`
// expression: a closure permanently associated with a memory view and a
// system-call filter (§2.2). It can be bound to a variable and reused;
// the restrictions are enforced on every execution.
type Enclosure struct {
	prog    *Program
	id      int
	name    string
	pkg     string // the closure's hidden package (its arena/home)
	declPkg string // the package whose source declares the enclosure
	token   uint64
	body    Func
	env     *litterbox.Env
}

// Name returns the enclosure's declared name.
func (e *Enclosure) Name() string { return e.name }

// Pkg returns the closure's own package identity (its arena).
func (e *Enclosure) Pkg() string { return e.pkg }

// Env returns the enclosure's (pre-intersection) execution environment.
func (e *Enclosure) Env() *litterbox.Env { return e.env }

// Call executes the closure inside its restricted environment: the
// compiler-inserted Prolog switches in (entering at most the
// intersection of the current and the enclosure's environment — nesting
// can only restrict), the body runs with its declaring package as the
// current package, and Epilog restores the caller's environment on
// return. Every execution is subject to the same policy.
func (e *Enclosure) Call(t *Task, args ...Value) ([]Value, error) {
	defer t.leave(t.enter())
	t.checkAlive()
	t.cpu.Clock.Advance(hw.CostClosureCall)

	from := t.env
	cur, err := t.prog.lb.PrologWith(t.cpu, from, e.id, e.token, t.cache)
	if err != nil {
		t.fail(err)
	}
	t.env = cur
	t.pushPkg(e.pkg)
	t.pushFrame() // split stack: caller frames stay out of the view
	defer func() {
		t.popFrame()
		t.popPkg()
		t.env = from
		// If the body faulted, the task's domain (or the program) is
		// dead: Epilog refuses the switch back with ErrAborted, and
		// unwinding continues to the request or program boundary.
		if eerr := t.prog.lb.Epilog(t.cpu, cur, from, e.id, e.token); eerr != nil && !errors.Is(eerr, litterbox.ErrAborted) {
			t.fail(eerr)
		}
	}()
	return e.body(t, args...)
}
