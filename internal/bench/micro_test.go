package bench

import (
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
)

// Paper Table 1, in nanoseconds.
var table1Paper = map[core.BackendKind]map[string]float64{
	core.Baseline: {"call": 45, "transfer": 0, "syscall": 387},
	core.MPK:      {"call": 86, "transfer": 1002, "syscall": 523},
	core.VTX:      {"call": 924, "transfer": 158, "syscall": 4126},
}

// TestCHERIProjectionNumbers pins the projected micro-costs of the
// capability backend (not a paper row; see internal/hw for the model):
// call ≈ 45 + 2×(25+2) = 99, transfer = 40, syscall = 387 + 60 = 447.
func TestCHERIProjectionNumbers(t *testing.T) {
	want := map[string]float64{"call": 99, "transfer": 40, "syscall": 447}
	for op, fn := range map[string]func(core.BackendKind, int) (MicroResult, error){
		"call": MicroCall, "transfer": MicroTransfer, "syscall": MicroSyscall,
	} {
		r, err := fn(core.CHERI, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if r.NsPerOp != want[op] {
			t.Errorf("CHERI %s = %.1fns, want %.0f", op, r.NsPerOp, want[op])
		}
	}
}

// TestTable1MatchesPaper checks every micro-benchmark cell lands within
// 5% (or 10ns absolute for the small ones) of the paper's measurement.
func TestTable1MatchesPaper(t *testing.T) {
	results, err := table1(table1Iters)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 9 {
		t.Fatalf("expected 9 cells, got %d", len(results))
	}
	for _, r := range results {
		want := table1Paper[r.Backend][r.Op]
		diff := r.NsPerOp - want
		if diff < 0 {
			diff = -diff
		}
		tol := want * 0.05
		if tol < 10 {
			tol = 10
		}
		if diff > tol {
			t.Errorf("%v/%s = %.1fns, paper %.0fns (|Δ|=%.1f > %.1f)",
				r.Backend, r.Op, r.NsPerOp, want, diff, tol)
		} else {
			t.Logf("%v/%-8s = %8.1fns (paper %5.0fns)", r.Backend, r.Op, r.NsPerOp, want)
		}
	}
}
