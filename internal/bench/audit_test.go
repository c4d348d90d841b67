package bench

import (
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
)

// TestWikiAuditDeriveEnforce proves the audit cycle on every backend:
// the wiki runs under empty policies in audit mode, the recorder
// derives minimal policies, and the same workload re-run under the
// derived literals (fed back verbatim through ParsePolicy) completes
// without a single protection fault.
func TestWikiAuditDeriveEnforce(t *testing.T) {
	for _, kind := range ProjectionBackends {
		t.Run(kind.String(), func(t *testing.T) {
			out, err := RunWikiAuditTo(kind, nil)
			if err != nil {
				t.Fatalf("RunWikiAuditTo: %v", err)
			}
			if out.ReRunFaults != 0 {
				t.Errorf("re-run under derived policies raised %d faults", out.ReRunFaults)
			}
			for _, encl := range []string{"http-server", "db-proxy"} {
				lit, ok := out.Derived[encl]
				if !ok {
					t.Fatalf("no policy derived for %s (derived: %v)", encl, out.Derived)
				}
				if _, err := core.ParsePolicy(lit); err != nil {
					t.Errorf("derived policy %q does not parse: %v", lit, err)
				}
			}
			// The proxy's derived policy must pin connect(2) to the
			// Postgres server it actually dialled, and the server's must
			// block connects outright — it never dialled anyone.
			if lit := out.Derived["db-proxy"]; !strings.Contains(lit, "connect:10.0.0.2") {
				t.Errorf("db-proxy policy %q does not pin connect to the database", lit)
			}
			if lit := out.Derived["http-server"]; !strings.Contains(lit, "connect:none") {
				t.Errorf("http-server policy %q should deny all connects", lit)
			}
			if kind != core.Baseline && out.Violations == 0 {
				t.Errorf("audit phase under empty policies recorded no violations")
			}
		})
	}
}

// TestAuditOutcomeString pins the report `enclose audit` prints: the
// derived policies come out sorted by enclosure name, whatever order
// the map iterates in.
func TestAuditOutcomeString(t *testing.T) {
	o := AuditOutcome{
		Backend: core.MPK, Requests: 4, Violations: 3, ReRunFaults: 0,
		Derived: map[string]string{"http-server": "sys:net", "db-proxy": "connect:10.0.0.2", "b": "sys:none"},
	}
	want := "backend mpk: 4 requests, 3 violations recorded\n" +
		"  b            -> \"sys:none\"\n" +
		"  db-proxy     -> \"connect:10.0.0.2\"\n" +
		"  http-server  -> \"sys:net\"\n" +
		"  re-run under derived policies: 0 faults\n"
	for i := 0; i < 5; i++ {
		if got := o.String(); got != want {
			t.Fatalf("String() =\n%s\nwant\n%s", got, want)
		}
	}
	if got := sortedKeys(nil); len(got) != 0 {
		t.Fatalf("sortedKeys(nil) = %v", got)
	}
}
