package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/litterbox-project/enclosure/internal/cluster"
	"github.com/litterbox-project/enclosure/internal/probe"
)

// runProbe implements the probe subcommand: a seeded adversarial sweep
// across all four backends under the differential oracle. Every trace
// replays under the reference arm and under each fast path's arm, whose
// outcome digests must match the reference's. A divergence is shrunk to
// a minimal reproducer and the process exits non-zero; the printed seed
// replays the exact trace.
func runProbe(args []string) {
	fs := flag.NewFlagSet("enclose probe", flag.ExitOnError)
	seed := fs.Uint64("seed", 0xEC705E, "base seed; the same seed always replays the same traces")
	n := fs.Int("n", 1, "number of traces to sweep from the seed")
	ops := fs.Int("ops", 40, "operations per trace")
	fs.Parse(args)

	var warm probe.Warm
	migrations := 0
	arms := []probe.Arm{
		{Name: "reference"}, probe.Interpreter, probe.SequentialDrain,
		warm.Clone(), warm.Recycled(), cluster.MigrateArm(0, &migrations),
	}
	names := make([]string, len(arms))
	for i, a := range arms {
		names[i] = a.Name
	}
	fmt.Printf("probing %d trace(s) from seed %#x (%d ops each) on baseline/mpk/vtx/cheri\n  arms: %s\n",
		*n, *seed, *ops, strings.Join(names, ", "))
	stats, div, err := probe.Sweep(*seed, *n, *ops, arms...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  %d traces, %d ops executed (%d skipped), %d faults provoked\n",
		stats.Traces, stats.Ops, stats.Skipped, stats.Faults)
	fmt.Printf("  %d traces with dynamic imports, %d with fault injections (%d errno, %d transfer)\n",
		stats.DynImportTraces, stats.InjectionTraces, stats.InjectedErrnos, stats.InjectedTransfers)
	clones, recycles := warm.Stats()
	fmt.Printf("  %d snapshot clones, %d recycles, %d world migrations\n", clones, recycles, migrations)
	if div == nil {
		fmt.Println("  no divergences: all four backends agree with each other and the model, and every arm matches the reference digest")
		return
	}

	fmt.Printf("\n%s\n", div)
	shrunk, sdiv := probe.Shrink(probe.Gen(div.Seed, *ops), arms...)
	if sdiv != nil {
		fmt.Printf("\nminimal reproducer (%d ops, seed %#x):\n", len(shrunk.Ops), shrunk.Seed)
		for i, op := range shrunk.Ops {
			fmt.Printf("  %2d: %s\n", i, op.String())
		}
		fmt.Printf("\n%s\n", sdiv)
	}
	os.Exit(1)
}
