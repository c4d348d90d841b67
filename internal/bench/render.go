package bench

import (
	"fmt"
	"strings"

	"github.com/litterbox-project/enclosure/internal/attacks"
)

// renderTable1 formats micro-benchmark results like the paper's Table 1.
func renderTable1(entries []MicroEntry) string {
	cell := make(map[string]map[string]float64)
	for _, e := range entries {
		if cell[e.Op] == nil {
			cell[e.Op] = make(map[string]float64)
		}
		cell[e.Op][e.Backend] = e.Ns
	}
	var sb strings.Builder
	sb.WriteString("Table 1: Microbenchmarks results in nanoseconds.\n\n")
	fmt.Fprintf(&sb, "%-10s %10s %10s %10s\n", "", "Baseline", "LB_MPK", "LB_VTX")
	for _, op := range []string{"call", "transfer", "syscall"} {
		fmt.Fprintf(&sb, "%-10s %10.0f %10.0f %10.0f\n",
			op, cell[op]["baseline"], cell[op]["mpk"], cell[op]["vtx"])
	}
	return sb.String()
}

// renderTable2 formats macro-benchmark sweeps like the paper's Table 2,
// one row per run of consecutive entries of the same benchmark.
// Columns follow the backends present in the entries, so projection
// sweeps including LB_CHERI render an extra pair.
func renderTable2(entries []MacroEntry, tcb []TCBRow) string {
	present := map[string]bool{}
	var groups [][]MacroEntry
	for i, e := range entries {
		present[e.Backend] = true
		if i == 0 || e.Benchmark != entries[i-1].Benchmark {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], e)
	}
	order := []string{"mpk", "vtx", "cheri"}
	label := map[string]string{
		"mpk": "LB_MPK raw", "vtx": "LB_VTX raw", "cheri": "LB_CHERI raw",
	}

	var sb strings.Builder
	sb.WriteString("Table 2: Macrobenchmarks results.\n\n")
	fmt.Fprintf(&sb, "%-10s %16s", "", "Baseline")
	for _, k := range order {
		if present[k] {
			fmt.Fprintf(&sb, " %16s %9s", label[k], "slowdown")
		}
	}
	sb.WriteByte('\n')
	for _, rs := range groups {
		byKind := make(map[string]MacroEntry)
		var name, unit string
		for _, r := range rs {
			byKind[r.Backend] = r
			name, unit = r.Benchmark, r.Unit
		}
		format := func(v float64) string {
			if unit == "ms" {
				return fmt.Sprintf("%.2fms", v)
			}
			return fmt.Sprintf("%.0freqs/s", v)
		}
		fmt.Fprintf(&sb, "%-10s %16s", name, format(byKind["baseline"].Raw))
		for _, k := range order {
			if present[k] {
				fmt.Fprintf(&sb, " %16s %8.2fx", format(byKind[k].Raw), byKind[k].Slowdown)
			}
		}
		sb.WriteByte('\n')
	}
	if len(tcb) > 0 {
		sb.WriteString("\nBenchmark information (TCB study):\n")
		fmt.Fprintf(&sb, "%-10s %12s %14s %8s %14s %12s\n",
			"App", "TCB #LOC", "Enclosed #LOC", "#Stars", "#Contributors", "#Public deps")
		for _, row := range tcb {
			enclosed := "-"
			stars := "-"
			contrib := "-"
			deps := "-"
			if row.EnclosedLOC > 0 {
				enclosed = fmt.Sprintf("%dK", row.EnclosedLOC/1000)
				stars = fmt.Sprintf("%.1fK", float64(row.Stars)/1000)
				contrib = fmt.Sprintf("%d", row.Contributors)
				deps = fmt.Sprintf("%d", row.PublicDeps)
			}
			fmt.Fprintf(&sb, "%-10s %12d %14s %8s %14s %12s\n",
				row.App, row.AppLOC, enclosed, stars, contrib, deps)
		}
	}
	return sb.String()
}

// renderFigure5 formats the wiki sweep.
func renderFigure5(entries []MacroEntry) string {
	var sb strings.Builder
	sb.WriteString("Figure 5: wiki web-app (mux enclosure ○B + pq proxy enclosure ○C).\n\n")
	for _, e := range entries {
		fmt.Fprintf(&sb, "  %-9s %9.0f reqs/s  slowdown %.2fx  (switches=%d syscalls=%d transfers=%d)\n",
			e.Backend, e.Raw, e.Slowdown, e.Switches, e.Syscalls, e.Transfers)
	}
	return sb.String()
}

// renderPython formats the §6.4 experiments.
func renderPython(entries []PythonEntry) string {
	var sb strings.Builder
	sb.WriteString("§6.4: Python enclosures (matplotlib plot of secret data, LB_VTX).\n\n")
	for _, e := range entries {
		fmt.Fprintf(&sb, "  %-13s slowdown %5.2fx  switches %7d  init %4.1f%% of overhead  syscalls %4.2f%%\n",
			e.Mode, e.Slowdown, e.Switches, e.InitShare*100, e.SysShare*100)
	}
	sb.WriteString("\n  (paper: conservative ~18x with ~1M switches; decoupled-metadata ~1.4x\n")
	sb.WriteString("   dominated by delayed initialisation; syscall overhead <1%)\n")
	return sb.String()
}

// renderSecurity formats the §6.5 scenario reports.
func renderSecurity(reports []attacks.Report) string {
	var sb strings.Builder
	sb.WriteString("§6.5: recreated malicious packages.\n\n")
	for _, r := range reports {
		sb.WriteString("  " + r.String() + "\n")
	}
	return sb.String()
}

// renderAblations formats the design-choice studies.
func renderAblations(results []AblationResult) string {
	var sb strings.Builder
	sb.WriteString("Ablations:\n\n")
	for _, a := range results {
		fmt.Fprintf(&sb, "  %s (%s)\n    %v\n", a.Name, a.Detail, a.Metrics)
	}
	return sb.String()
}
