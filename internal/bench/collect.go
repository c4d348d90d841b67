package bench

import (
	"fmt"
	"slices"
	"strings"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/obs"
)

// Size carries the sweep sizes of one Collect run. Smoke and
// Acceptance are the two named sizes; every other sweep dimension is
// fixed by its section.
type Size struct {
	Iters           int  // Table 1 and fast-path dispatch iterations
	MigrationTraces int  // cluster migration digest sweep
	ChurnTraces     int  // churn warm-pool digest sweep
	LatencyRequests int  // measured arrivals per latency cell
	Projections     bool // Table 2 adds the LB_CHERI column
}

var (
	// Smoke is the size of CI, text mode and `enclosebench -json`.
	Smoke = Size{Iters: 100000, MigrationTraces: 60, ChurnTraces: 40, LatencyRequests: 240}
	// Acceptance is the size of the checked-in trajectory point
	// (`enclosebench -trajectory BENCH_N.json`).
	Acceptance = Size{Iters: 200000, MigrationTraces: 300, ChurnTraces: 300, LatencyRequests: 1000}
)

// section is one evaluation result: run fills its field of *Results,
// render formats that field as text.
type section struct {
	name   string
	run    func(r *Results, size Size) error
	render func(r *Results) string
	// textOnly sections are left out of a Collect call that names no
	// section: Figure 4 is a layout dump and the ablations are one-off
	// studies, not measurements a regression tracker compares.
	textOnly bool
}

// sections is the table of every evaluation section, in run order.
var sections = []section{
	{name: "1", run: collectTable1, render: func(r *Results) string { return renderTable1(r.Table1) }},
	{name: "2", run: collectTable2, render: func(r *Results) string { return renderTable2(r.Table2, r.TCB) }},
	{name: "scale", run: collectScale, render: func(r *Results) string { return renderScaleTable(r.Scale) }},
	{name: "probe", run: func(r *Results, _ Size) error {
		pr, err := runProbeBench(200, 40) // one size in every mode
		r.Probe = &pr
		return err
	}, render: func(r *Results) string { return renderProbeTable(*r.Probe) }},
	{name: "fastpath", run: func(r *Results, size Size) error {
		fp, err := runFastpath(size.Iters)
		r.Fastpath = &fp
		return err
	}, render: func(r *Results) string { return renderFastpathTable(*r.Fastpath) }},
	{name: "ring", run: func(r *Results, _ Size) (err error) {
		r.Ring, err = runRing()
		return err
	}, render: func(r *Results) string { return renderRingTable(r.Ring) }},
	{name: "churn", run: func(r *Results, size Size) error {
		churn, err := runChurn(size.ChurnTraces)
		r.Churn = &churn
		return err
	}, render: func(r *Results) string { return renderChurnTable(*r.Churn) }},
	{name: "cluster", run: collectCluster, render: renderCluster},
	{name: "latency", run: func(r *Results, size Size) (err error) {
		r.Latency, err = runLatency(size.LatencyRequests)
		return err
	}, render: func(r *Results) string { return renderLatencyTable(r.Latency) }},
	{name: "figure4", textOnly: true, run: func(r *Results, _ Size) (err error) {
		r.Figure4, err = Figure4Dump()
		return err
	}, render: func(r *Results) string { return r.Figure4 }},
	{name: "figure5", run: func(r *Results, _ Size) error {
		wiki, err := Sweep(RunWiki, PaperBackends)
		r.Figure5 = macroEntries(wiki)
		return err
	}, render: func(r *Results) string { return renderFigure5(r.Figure5) }},
	{name: "python", run: collectPython, render: func(r *Results) string { return renderPython(r.Python) }},
	{name: "security", run: collectSecurity, render: func(r *Results) string { return renderSecurity(r.securityReports) }},
	{name: "ablations", textOnly: true, run: collectAblations, render: func(r *Results) string { return renderAblations(r.Ablations) }},
}

// Sections names every section, in run order.
func Sections() []string {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	return names
}

// pick returns the named sections in table order, or every section but
// the text-only ones when names is empty.
func pick(names []string) ([]section, error) {
	for _, n := range names {
		if !slices.Contains(Sections(), n) {
			return nil, fmt.Errorf("bench: unknown section %q (want one of %s)", n, strings.Join(Sections(), ", "))
		}
	}
	var out []section
	for _, s := range sections {
		if slices.Contains(names, s.name) || len(names) == 0 && !s.textOnly {
			out = append(out, s)
		}
	}
	return out, nil
}

// Collect runs the named sections at the given size and returns their
// results. With no names it runs every section except the text-only
// Figure 4 dump and ablations — the full machine-readable evaluation.
func Collect(size Size, names ...string) (*Results, error) {
	picked, err := pick(names)
	if err != nil {
		return nil, err
	}
	r := &Results{Paper: map[string]string{
		"title": "Enclosure: Language-Based Restriction of Untrusted Libraries",
		"venue": "ASPLOS 2021",
	}}
	for _, s := range picked {
		if err := s.run(r, size); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", s.name, err)
		}
	}
	return r, nil
}

// Render formats the named sections of r as text, in table order, one
// blank line after each; no names means every non-text-only section,
// as in Collect. Every named section must have been collected into r.
func Render(r *Results, names ...string) (string, error) {
	picked, err := pick(names)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, s := range picked {
		sb.WriteString(s.render(r))
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

func collectTable1(r *Results, size Size) error {
	micro, err := table1(size.Iters)
	for _, m := range micro {
		r.Table1 = append(r.Table1, MicroEntry{Backend: m.Backend.String(), Op: m.Op, Ns: m.NsPerOp})
	}
	return err
}

func collectTable2(r *Results, size Size) error {
	kinds := PaperBackends
	if size.Projections {
		kinds = ProjectionBackends
	}
	for _, fn := range []func(core.BackendKind) (MacroResult, error){RunBild, RunHTTP, RunFastHTTP} {
		rs, err := Sweep(fn, kinds)
		if err != nil {
			return err
		}
		r.Table2 = append(r.Table2, macroEntries(rs)...)
	}
	r.TCB = []TCBRow{BildTCB(), HTTPTCB(), FastHTTPTCB()}
	return nil
}

func macroEntries(rs []MacroResult) []MacroEntry {
	var out []MacroEntry
	for _, r := range rs {
		out = append(out, MacroEntry{
			Benchmark: r.Benchmark, Backend: r.Backend.String(),
			Raw: r.Raw, Unit: r.Unit, Slowdown: r.Slowdown,
			Switches: r.Counters.Switches, Syscalls: r.Counters.Syscalls,
			Transfers: r.Counters.Transfers,
		})
	}
	return out
}

// collectScale runs the scaling sweep with one event trace attached to
// every cell's program. Tracing is free in virtual time, so the
// throughput is the untraced figure and the merged snapshot rides
// along.
func collectScale(r *Results, _ Size) (err error) {
	tr := obs.New(1024)
	if r.Scale, err = runScale(core.WithTracer(tr)); err != nil {
		return err
	}
	snap := tr.Snapshot()
	r.Trace = &snap
	return nil
}

func collectCluster(r *Results, size Size) (err error) {
	if r.Cluster, err = runCluster(); err != nil {
		return err
	}
	mig, err := runClusterMigration(size.MigrationTraces)
	r.ClusterMigration = &mig
	return err
}

func renderCluster(r *Results) string {
	return renderClusterTable(r.Cluster) + fmt.Sprintf(
		"\nMigration sweep: %d traces, %d world migrations, digests match on all four backends.\n",
		r.ClusterMigration.Traces, r.ClusterMigration.Migrations)
}

func collectPython(r *Results, _ Size) error {
	py, err := pythonExperiments()
	for _, p := range py {
		r.Python = append(r.Python, PythonEntry{
			Mode: p.Mode.String(), Backend: p.Backend.String(),
			Slowdown: p.Slowdown, Switches: p.Switches,
			InitShare: p.InitShare, SysShare: p.SysShare,
		})
	}
	return err
}

func collectSecurity(r *Results, _ Size) error {
	sec, err := SecuritySuite()
	r.securityReports = sec
	for _, s := range sec {
		r.Security = append(r.Security, SecurityEntry{
			Scenario: s.Scenario, Backend: s.Backend.String(),
			Protected: s.Protected, LegitOK: s.LegitOK,
			Blocked: s.Blocked, LootBytes: s.LootBytes,
		})
	}
	return err
}

func collectAblations(r *Results, _ Size) error {
	runs := []func() (AblationResult, error){
		runClusteringAblation,
		func() (AblationResult, error) { return RunVirtKeysAblation(20) },
		func() (AblationResult, error) { return RunSchedulerAblation(core.MPK, 8, 10) },
		func() (AblationResult, error) { return RunSchedulerAblation(core.VTX, 8, 10) },
	}
	for _, run := range runs {
		a, err := run()
		if err != nil {
			return err
		}
		r.Ablations = append(r.Ablations, a)
	}
	return nil
}
