package litterbox

import (
	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/obs"
)

// EnableTrace starts recording enforcement events — the six API calls
// plus faults and audited violations, a bounded window of recent ones
// verbatim plus running aggregates over all of them — into one
// obs.Trace shared by all workers, and returns the trace.
func (lb *LitterBox) EnableTrace(capacity int) *obs.Trace {
	tr := obs.New(capacity)
	lb.setTrace(tr)
	return tr
}

// DisableTrace stops recording.
func (lb *LitterBox) DisableTrace() { lb.setTrace(nil) }

// setTrace attaches tr (nil detaches it). The kernel traces syscall
// dispatch itself (it knows the verdict and the virtual time spent);
// LitterBox hands it a trace source, which supplies the tracer and the
// backend/worker attribution the kernel cannot know, only while a
// tracer is attached, so an untraced syscall pays one nil check.
func (lb *LitterBox) setTrace(tr *obs.Trace) {
	lb.trace = tr
	if tr == nil {
		lb.Kernel.SetTraceSource(nil)
		return
	}
	lb.Kernel.SetTraceSource(func(cpu *hw.CPU) (*obs.Trace, string, string) {
		return lb.trace, lb.backend.Name(), lb.workerName(cpu)
	})
}

// Tracer returns the attached trace, or nil when tracing is disabled.
func (lb *LitterBox) Tracer() *obs.Trace { return lb.trace }

// tracing is the hot-path guard: callers check it before building an
// Event so an untraced run never pays for event construction, and a
// traced one skips it exactly once per emit.
func (lb *LitterBox) tracing() bool { return lb.trace != nil }

// Audit returns the attached audit recorder, or nil when enforcing.
func (lb *LitterBox) Audit() *obs.Audit { return lb.audit }

// envName renders an environment's trace name.
func envName(env *Env) string {
	if env == nil {
		return ""
	}
	if env.Trusted {
		return "trusted"
	}
	return env.Name
}

// emit stamps and records one event: virtual time from the emitting
// CPU's clock (the program clock when cpu is nil), the backend name,
// and the worker bound to the CPU. Tracing is host-side — nothing here
// advances the virtual clock.
func (lb *LitterBox) emit(cpu *hw.CPU, e obs.Event) {
	tr := lb.trace
	if tr == nil {
		return
	}
	if e.At == 0 {
		if cpu != nil {
			e.At = cpu.Clock.Now()
		} else {
			e.At = lb.Clock.Now()
		}
	}
	e.Backend = lb.backend.Name()
	if e.Worker == "" {
		e.Worker = lb.workerName(cpu)
	}
	tr.Emit(e)
}
