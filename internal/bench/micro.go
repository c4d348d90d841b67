// Package bench implements the paper's evaluation harness (§6): the
// Table 1 micro-benchmarks (call, transfer, syscall), the Table 2
// macro-benchmarks (bild, HTTP, FastHTTP) with their TCB study, the
// Figure 5 wiki application, and the §6.4 Python-frontend experiments.
// Each function reproduces one measurement; Collect runs them by section
// name and Render formats the results as the paper's tables.
package bench

import (
	"fmt"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/kernel"
)

// MicroResult is one Table 1 cell: virtual nanoseconds per operation.
type MicroResult struct {
	Backend core.BackendKind
	Op      string
	NsPerOp float64
}

// buildMicroProgram assembles the minimal program the micro-benchmarks
// share: an empty public package and three enclosures — an empty one
// (call), and a getuid loop (syscall) whose filter authorises it.
func buildMicroProgram(kind core.BackendKind, loops int) (*core.Program, error) {
	b := core.NewBuilder(kind)
	b.Package(core.PackageSpec{Name: "main", Imports: []string{"empty"}, Origin: "app"})
	b.Package(core.PackageSpec{Name: "empty", Origin: "public"})
	b.Enclosure("empty", "main", "sys:none",
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return nil, nil
		}, "empty")
	b.Enclosure("getuid-loop", "main", "sys:proc",
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			n := args[0].(int)
			for i := 0; i < n; i++ {
				if _, errno := t.Syscall(kernel.NrGetuid); errno != kernel.OK {
					return nil, fmt.Errorf("getuid: %v", errno)
				}
			}
			return nil, nil
		}, "empty")
	return b.Build()
}

// MicroCall measures one empty enclosure call and return (Table 1,
// "call"): Baseline ≈45ns, LB_MPK ≈86ns, LB_VTX ≈924ns.
func MicroCall(kind core.BackendKind, iters int) (MicroResult, error) {
	prog, err := buildMicroProgram(kind, iters)
	if err != nil {
		return MicroResult{}, err
	}
	encl := prog.MustEnclosure("empty")
	var ns int64
	err = prog.Run(func(t *core.Task) error {
		// Warm up (materialise any lazy state).
		if _, err := encl.Call(t); err != nil {
			return err
		}
		start := prog.Clock().Now()
		for i := 0; i < iters; i++ {
			if _, err := encl.Call(t); err != nil {
				return err
			}
		}
		ns = prog.Clock().Now() - start
		return nil
	})
	if err != nil {
		return MicroResult{}, err
	}
	return MicroResult{Backend: kind, Op: "call", NsPerOp: float64(ns) / float64(iters)}, nil
}

// MicroTransfer measures LitterBox's Transfer on a 4-page section
// (Table 1, "transfer"): Baseline 0ns, LB_MPK ≈1002ns, LB_VTX ≈158ns.
func MicroTransfer(kind core.BackendKind, iters int) (MicroResult, error) {
	prog, err := buildMicroProgram(kind, 0)
	if err != nil {
		return MicroResult{}, err
	}
	span, err := prog.NewSpan(4 * 4096)
	if err != nil {
		return MicroResult{}, err
	}
	// Warm up and position the span in a package arena.
	if err := prog.TransferSpan(span, "empty"); err != nil {
		return MicroResult{}, err
	}
	start := prog.Clock().Now()
	for i := 0; i < iters; i++ {
		dst := "main"
		if i%2 == 0 {
			dst = "empty"
		}
		if err := prog.TransferSpan(span, dst); err != nil {
			return MicroResult{}, err
		}
	}
	ns := prog.Clock().Now() - start
	return MicroResult{Backend: kind, Op: "transfer", NsPerOp: float64(ns) / float64(iters)}, nil
}

// MicroSyscall measures a getuid system call issued inside an enclosure
// whose filter authorises it (Table 1, "syscall"): Baseline ≈387ns,
// LB_MPK ≈523ns, LB_VTX ≈4126ns.
func MicroSyscall(kind core.BackendKind, iters int) (MicroResult, error) {
	prog, err := buildMicroProgram(kind, iters)
	if err != nil {
		return MicroResult{}, err
	}
	encl := prog.MustEnclosure("getuid-loop")
	var ns int64
	err = prog.Run(func(t *core.Task) error {
		// Measure inside the enclosure: the paper's number is the
		// syscall latency, not the surrounding enclosure call.
		if _, err := encl.Call(t, 1); err != nil { // warm-up
			return err
		}
		start := prog.Clock().Now()
		if _, err := encl.Call(t, iters); err != nil {
			return err
		}
		total := prog.Clock().Now() - start
		// Subtract the enclosure call that wraps the loop.
		s := prog.Clock().Now()
		if _, err := encl.Call(t, 0); err != nil {
			return err
		}
		ns = total - (prog.Clock().Now() - s)
		return nil
	})
	if err != nil {
		return MicroResult{}, err
	}
	return MicroResult{Backend: kind, Op: "syscall", NsPerOp: float64(ns) / float64(iters)}, nil
}

// table1 runs every Table 1 cell and returns results in the paper's
// row-major order (call, transfer, syscall × Baseline, MPK, VTX).
func table1(iters int) ([]MicroResult, error) {
	var out []MicroResult
	type fn func(core.BackendKind, int) (MicroResult, error)
	for _, f := range []fn{MicroCall, MicroTransfer, MicroSyscall} {
		for _, kind := range core.Backends {
			r, err := f(kind, iters)
			if err != nil {
				return nil, fmt.Errorf("table1 %v: %w", kind, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}
