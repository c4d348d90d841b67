//go:build go1.23

package core

import "iter"

// startCoroutine makes body t's coroutine: t.resume runs it until it
// calls t.yield or returns. iter.Pull is Go 1.23's; the constraint lets
// this file use it while the module's go line stays at 1.22, the
// version the modules that require this one declare.
func (t *Task) startCoroutine(body func()) {
	t.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		body()
	})
}
