// Command enclose runs a small demonstration program under a chosen
// LitterBox backend and prints what the enclosure construct enforces:
//
//	enclose -backend mpk  -demo invert      # legitimate use succeeds
//	enclose -backend mpk  -demo tamper      # write to read-only secret
//	enclose -backend vtx  -demo steal       # read foreign private key
//	enclose -backend vtx  -demo exfiltrate  # syscall under sys:none
//	enclose -layout                         # dump the linked image (Figure 4)
//	enclose -keys                           # show meta-package key assignment
//	enclose -spec scenarios/figure1.json    # run a declarative scenario
//
// The audit subcommand runs the wiki application under empty policies
// in audit mode (violations are recorded and allowed through, the
// SECCOMP_RET_LOG workflow), derives the minimal policy each enclosure
// needs, and re-runs the workload enforcing the derived literals:
//
//	enclose audit                           # derive wiki policies on every backend
//	enclose audit -backend mpk -jsonl t.jsonl
//
// The probe subcommand runs the adversarial probe engine: seeded random
// enclosure programs executed on all four backends under a differential
// oracle, each replayed under every arm (reference, interpreter,
// sequential drain, clone, recycled, migrate), with any divergence
// shrunk to a minimal reproducer:
//
//	enclose probe -n 500                    # sweep 500 traces
//	enclose probe -seed 0xec705e -ops 40    # replay one trace deterministically
//
// The cluster subcommand runs N engine nodes behind a consistent-hash
// load balancer on a simulated network: content-addressed image
// replication at join, live session migration with policy
// re-verification, and a graceful drain that drops nothing:
//
//	enclose cluster -nodes 4 -requests 400
//	enclose cluster -backend vtx -sweep 50
//
// The privcheck subcommand is the privilege-regression gate: it mines
// least-privilege policies for every enclosure in the corpus (apps,
// attack scenarios, declarative specs, seeded probe programs), diffs
// them against the declarations, and compares the derived privilege
// against the checked-in PRIVILEGE.json ledger, failing on any growth:
//
//	enclose privcheck                       # gate against PRIVILEGE.json
//	enclose privcheck -update               # accept current privilege as the baseline
//	enclose privcheck -json                 # full analysis as JSON
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/litterbox-project/enclosure"
	"github.com/litterbox-project/enclosure/internal/bench"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/obs"
	"github.com/litterbox-project/enclosure/internal/spec"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "audit" {
		runAudit(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "probe" {
		runProbe(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "cluster" {
		runCluster(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "privcheck" {
		runPrivcheck(os.Args[2:])
		return
	}
	backendName := flag.String("backend", "mpk", "baseline|mpk|vtx|cheri")
	demo := flag.String("demo", "invert", "invert|tamper|steal|exfiltrate")
	layout := flag.Bool("layout", false, "dump the linked executable image (Figure 4)")
	keys := flag.Bool("keys", false, "show the MPK meta-package key assignment")
	trace := flag.Bool("trace", false, "print the enforcement event trace")
	specFile := flag.String("spec", "", "run a declarative scenario from a JSON file")
	flag.Parse()

	if *specFile != "" {
		blob, err := os.ReadFile(*specFile)
		if err != nil {
			fatal(err)
		}
		doc, err := spec.Parse(blob)
		if err != nil {
			fatal(err)
		}
		outcomes, err := spec.Run(doc)
		if err != nil {
			fatal(err)
		}
		bad := 0
		for _, o := range outcomes {
			fmt.Println(" ", o)
			if !o.Matched {
				bad++
			}
		}
		if bad > 0 {
			fatal(fmt.Errorf("%d step(s) did not match their expectation", bad))
		}
		return
	}

	if *layout {
		dump, err := bench.Figure4Dump()
		if err != nil {
			fatal(err)
		}
		fmt.Print(dump)
		return
	}

	backend, ok := map[string]enclosure.Backend{
		"baseline": enclosure.Baseline, "mpk": enclosure.MPK,
		"vtx": enclosure.VTX, "cheri": enclosure.CHERI,
	}[*backendName]
	if !ok {
		fatal(fmt.Errorf("unknown backend %q", *backendName))
	}

	prog, err := buildDemo(backend, *demo)
	if err != nil {
		fatal(err)
	}
	var tr *obs.Trace
	if *trace {
		tr = prog.LitterBox().EnableTrace(256)
	}

	if *keys {
		if mpk, ok := prog.LitterBox().Backend().(*litterbox.MPKBackend); ok {
			fmt.Print(mpk.DescribeKeys())
			return
		}
		fatal(fmt.Errorf("-keys requires -backend mpk"))
	}

	err = prog.Run(func(t *enclosure.Task) error {
		secret, err := prog.VarRef("secrets", "original")
		if err != nil {
			return err
		}
		t.WriteBytes(secret, []byte("0123456789abcdef"))
		res, err := prog.MustEnclosure("demo").Call(t, secret)
		if err != nil {
			return err
		}
		fmt.Printf("enclosure returned: % x\n", t.ReadBytes(res[0].(enclosure.Ref)))
		return nil
	})
	if err != nil {
		if f, okf := enclosure.AsFault(err); okf {
			fmt.Printf("fault (as designed): %v\n", f)
			printTrace(tr)
			return
		}
		fatal(err)
	}
	fmt.Println("completed without faults")
	printTrace(tr)
}

// runAudit implements the audit subcommand: observe, derive, enforce.
func runAudit(args []string) {
	fs := flag.NewFlagSet("enclose audit", flag.ExitOnError)
	backendName := fs.String("backend", "all", "all|baseline|mpk|vtx|cheri")
	jsonl := fs.String("jsonl", "", "also stream the audit phase's trace events to this file as JSON lines")
	fs.Parse(args)

	kinds := bench.ProjectionBackends
	if *backendName != "all" {
		kind, ok := map[string]enclosure.Backend{
			"baseline": enclosure.Baseline, "mpk": enclosure.MPK,
			"vtx": enclosure.VTX, "cheri": enclosure.CHERI,
		}[*backendName]
		if !ok {
			fatal(fmt.Errorf("unknown backend %q", *backendName))
		}
		kinds = []enclosure.Backend{kind}
	}

	var sink io.Writer
	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		sink = f
	}

	fmt.Println("auditing the wiki under empty policies, deriving minimal literals, re-running enforced:")
	for _, kind := range kinds {
		out, err := bench.RunWikiAuditTo(kind, sink)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out.String())
	}
}

func printTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	fmt.Println("\nenforcement trace (virtual time):")
	fmt.Print(tr.String())
}

func buildDemo(backend enclosure.Backend, demo string) (*enclosure.Program, error) {
	b := enclosure.New(backend)
	b.Package(enclosure.PackageSpec{
		Name:    "main",
		Imports: []string{"secrets", "lib"},
		Vars:    map[string]int{"private_key": 32},
		Origin:  "app",
	})
	b.Package(enclosure.PackageSpec{Name: "secrets", Vars: map[string]int{"original": 16}, Origin: "app"})
	b.Package(enclosure.PackageSpec{
		Name: "lib", Origin: "public",
		Funcs: map[string]enclosure.Func{
			"Process": func(t *enclosure.Task, args ...enclosure.Value) ([]enclosure.Value, error) {
				in := args[0].(enclosure.Ref)
				data := t.ReadBytes(in)
				switch demo {
				case "tamper":
					t.Store8(in.Addr, '!')
				case "steal":
					key, err := t.Prog().VarRef("main", "private_key")
					if err != nil {
						return nil, err
					}
					_ = t.ReadBytes(key)
				case "exfiltrate":
					t.Syscall(enclosure.SysSocket)
				}
				for i := range data {
					data[i] = ^data[i]
				}
				return []enclosure.Value{t.NewBytes(data)}, nil
			},
		},
	})
	b.Enclosure("demo", "main", "secrets:R; sys:none",
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call("lib", "Process", args...)
		}, "lib")
	return b.Build()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "enclose:", err)
	os.Exit(1)
}
