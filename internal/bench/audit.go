package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/litterbox-project/enclosure/internal/apps/wiki"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/obs"
)

// AuditRequests is the audit phase's workload size: enough traffic to
// exercise every syscall the wiki issues (views, saves, the proxy's
// Postgres connection) so the derived policies cover the workload.
const AuditRequests = 40

// exerciseWiki drives the wiki's audit workload on prog: AuditRequests
// alternating saves and views, with no warm-up.
func exerciseWiki(prog *core.Program) error {
	_, err := runWiki(prog, wikiLoop(prog, 8093, AuditRequests))
	return err
}

// AuditOutcome reports one backend's audit → derive → enforce cycle.
type AuditOutcome struct {
	Backend     core.BackendKind  `json:"-"`
	Requests    int               `json:"requests"`     // requests driven in each phase
	Violations  int64             `json:"violations"`   // policy violations the audit phase recorded
	Derived     map[string]string `json:"derived"`      // enclosure -> derived policy literal
	ReRunFaults int64             `json:"rerun_faults"` // protection faults when enforcing the derived policies
	Snapshot    obs.Snapshot      `json:"snapshot"`     // audit-phase trace
}

// RunWikiAuditTo runs the seccomp-notify-style policy-derivation cycle
// on one backend. Phase one runs the wiki under empty policies in
// audit mode: every restricted operation is recorded and allowed
// through, so the recorder observes the enclosures' full syscall and
// connect footprint, and its events stream to jsonl as JSON lines (nil
// disables the sink). The derived minimal policies are then enforced in
// phase two over the same workload, which must complete without a
// single protection fault — the derived literal is sufficient, and
// anything outside it (the attacks suite's exfiltration attempts, say)
// still faults.
func RunWikiAuditTo(kind core.BackendKind, jsonl io.Writer) (AuditOutcome, error) {
	tr := obs.New(512)
	if jsonl != nil {
		tr.SetJSONL(jsonl)
	}
	prog, err := wiki.Program(kind, "", "", core.WithTracer(tr), core.WithAudit())
	if err != nil {
		return AuditOutcome{}, err
	}
	if err := exerciseWiki(prog); err != nil {
		return AuditOutcome{}, fmt.Errorf("audit phase: %w", err)
	}
	audit := prog.Audit()
	out := AuditOutcome{
		Backend:    kind,
		Requests:   AuditRequests,
		Violations: audit.Violations(),
		Derived:    audit.Policies(),
		Snapshot:   tr.Snapshot(),
	}

	enforced, err := wiki.Program(kind, out.Derived["http-server"], out.Derived["db-proxy"])
	if err != nil {
		return out, fmt.Errorf("building with derived policies: %w", err)
	}
	if err := exerciseWiki(enforced); err != nil {
		return out, fmt.Errorf("enforcing derived policies: %w", err)
	}
	out.ReRunFaults = enforced.Counters().Snapshot().Faults
	return out, nil
}

// String renders the outcome for the CLI.
func (o AuditOutcome) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "backend %s: %d requests, %d violations recorded\n", o.Backend, o.Requests, o.Violations)
	for _, encl := range sortedKeys(o.Derived) {
		fmt.Fprintf(&sb, "  %-12s -> %q\n", encl, o.Derived[encl])
	}
	fmt.Fprintf(&sb, "  re-run under derived policies: %d faults\n", o.ReRunFaults)
	return sb.String()
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
