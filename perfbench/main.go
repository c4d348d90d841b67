// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the simulator through its public entry
// points (core.NewBuilder/Build, engine.New, loadgen.Run, probe sweeps)
// and prints one JSON object as its last line of output.
//
// Every number names its clock: vt_* metrics are virtual time (the
// paper's deterministic cost model), host_* metrics are host CPU time
// and host memory (what running the simulator costs). See README.md.
//
// Usage:
//
//	perfbench --workload fasthttp-mix --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// One host goroutine steps the engine and the apps' helper
	// goroutines hand off one at a time, so the program's work is
	// sequential. A second processor only adds cross-thread wake-ups and
	// idle spinning, whose CPU cost depends on what else the machine
	// runs. The collector still runs, on the same processor, so GC
	// pressure shows in host CPU time.
	runtime.GOMAXPROCS(1)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses the command line, runs the workload, and writes the report.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured host-wall seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	window := time.Duration(*seconds * float64(time.Second))
	var rep report
	var err error
	if *trace == 0 {
		rep, err = endToEnd(w, *seed, window, stderr)
	} else {
		rep, err = perLayer(w, *seed, window, stderr)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(rep)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
