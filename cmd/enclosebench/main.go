// Command enclosebench regenerates every table and figure of the
// paper's evaluation (§6) from the simulated implementation. Every
// section reports virtual time, the paper's cost model, and reads the
// same on every run. Host-wall costs of the simulator itself are
// sampled benchmarks instead:
//
//	go test ./internal/bench/ -run '^$' -bench Host -count 5
//
// Each -table name is one section of the evaluation:
//
//	enclosebench -table 1         # micro-benchmarks (call/transfer/syscall)
//	enclosebench -table 2         # bild, HTTP, FastHTTP + TCB study
//	enclosebench -table scale     # multi-core engine scaling sweep
//	enclosebench -table probe     # adversarial differential probe sweep
//	enclosebench -table ring      # batched syscall ring off/on per backend
//	enclosebench -table cluster   # multi-node cluster scaling + migration sweep
//	enclosebench -table latency   # open-loop latency sweep (p50/p99/p99.9 + shed)
//	enclosebench -table figure4   # linked executable image layout
//	enclosebench -table figure5   # wiki web-app with two enclosures
//	enclosebench -table python    # §6.4 CPython frontend experiments
//	enclosebench -table security  # §6.5 recreated malicious packages
//	enclosebench -table ablations # design-choice ablations
//	enclosebench -all                    # every section
//	enclosebench -table 2 -projections   # adds the LB_CHERI column
//	enclosebench -json results.json      # machine-readable evaluation (all but figure4 and ablations)
//	enclosebench -table scale -json -    # one section only, to stdout
//	enclosebench -trajectory BENCH_N.json  # acceptance-size trajectory point
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/litterbox-project/enclosure/internal/bench"
)

func main() {
	table := flag.String("table", "", "run one section: "+strings.Join(bench.Sections(), ", "))
	trajectory := flag.String("trajectory", "", "write the acceptance-size benchmark trajectory point to the given file")
	jsonOut := flag.String("json", "", "write machine-readable results of the -table section (default: the whole evaluation) to the given file ('-' for stdout)")
	all := flag.Bool("all", false, "run every section")
	projections := flag.Bool("projections", false, "add the LB_CHERI projection column to Table 2")
	flag.Parse()

	var names []string
	switch {
	case *all:
		names = bench.Sections()
	case slices.Contains(bench.Sections(), *table):
		names = []string{*table}
	case *table != "":
		flag.Usage()
		os.Exit(2)
	}
	size := bench.Smoke
	size.Projections = *projections

	switch {
	case *trajectory != "":
		results, err := bench.Collect(bench.Acceptance,
			"scale", "ring", "probe", "cluster", "latency")
		write(results, err, *trajectory)
		fmt.Printf("wrote %s\n", *trajectory)
	case *jsonOut != "":
		results, err := bench.Collect(size, names...)
		write(results, err, *jsonOut)
	case len(names) > 0:
		results, err := bench.Collect(size, names...)
		if err != nil {
			fail(err)
		}
		text, err := bench.Render(results, names...)
		if err != nil {
			fail(err)
		}
		fmt.Print(text)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// write marshals collected results to path ('-' for stdout).
func write(results *bench.Results, err error, path string) {
	if err != nil {
		fail(err)
	}
	blob, err := bench.MarshalResults(results)
	if err != nil {
		fail(err)
	}
	if path == "-" {
		_, _ = os.Stdout.Write(blob)
	} else if err := os.WriteFile(path, blob, 0o644); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "enclosebench:", err)
	os.Exit(1)
}
