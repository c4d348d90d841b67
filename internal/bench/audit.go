package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/litterbox-project/enclosure/internal/apps/wiki"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/obs"
	"github.com/litterbox-project/enclosure/internal/simdb"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// AuditRequests is the audit phase's workload size: enough traffic to
// exercise every syscall the wiki issues (views, saves, the proxy's
// Postgres connection) so the derived policies cover the workload.
const AuditRequests = 40

// AuditOutcome reports one backend's audit → derive → enforce cycle.
type AuditOutcome struct {
	Backend     core.BackendKind  `json:"-"`
	Requests    int               `json:"requests"`     // requests driven in each phase
	Violations  int64             `json:"violations"`   // policy violations the audit phase recorded
	Derived     map[string]string `json:"derived"`      // enclosure -> derived policy literal
	ReRunFaults int64             `json:"rerun_faults"` // protection faults when enforcing the derived policies
	Snapshot    obs.Snapshot      `json:"snapshot"`     // audit-phase trace
}

// buildWiki assembles the Figure 5 wiki with the given enclosure
// policies and builder options.
func buildWiki(kind core.BackendKind, policyServer, policyProxy string, opts ...core.Option) (*core.Program, error) {
	b := core.NewBuilder(kind, opts...)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{wiki.MuxPkg, wiki.PqPkg},
		Vars:    map[string]int{"db_password": 32, "page_templates": 4096},
		Origin:  "app", LOC: 120,
	})
	wiki.Register(b)
	b.Enclosure("http-server", "main", policyServer,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call(wiki.MuxPkg, "Serve", args[0])
		}, wiki.MuxPkg)
	b.Enclosure("db-proxy", "main", policyProxy,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call(wiki.PqPkg, "Proxy", args[0])
		}, wiki.PqPkg)
	return b.Build()
}

// driveWiki starts the database and the wiki pipeline on prog, drives
// requests (alternating saves and views), shuts down via /quit, and
// joins every task.
func driveWiki(prog *core.Program, requests int) error {
	db, err := simdb.Start(prog.Net())
	if err != nil {
		return err
	}
	defer db.Close()
	db.Put("welcome", []byte("hello from the enclosure wiki"))

	const port = 8093
	srvReady := make(chan struct{})
	proxyReady := make(chan struct{})
	reqCh := make(chan wiki.Request, 16)
	queryCh := make(chan wiki.Query, 16)

	return prog.Run(func(t *core.Task) error {
		glue := t.Go("glue", func(t *core.Task) error {
			return wiki.Glue(t, reqCh, queryCh)
		})
		proxy := t.Go("db-proxy", func(t *core.Task) error {
			_, err := prog.MustEnclosure("db-proxy").Call(t, wiki.ProxyArgs{Queries: queryCh, Ready: proxyReady})
			return err
		})
		srv := t.Go("http-server", func(t *core.Task) error {
			_, err := prog.MustEnclosure("http-server").Call(t, wiki.ServeArgs{Port: port, Reqs: reqCh, Ready: srvReady})
			return err
		})
		<-srvReady
		<-proxyReady

		for i := 0; i < requests; i++ {
			if i%2 == 0 {
				if err := wikiPost(prog.Net(), port, fmt.Sprintf("p%d", i), fmt.Sprintf("content-%d", i)); err != nil {
					return err
				}
			} else {
				body, err := wikiView(prog.Net(), port, fmt.Sprintf("p%d", i-1))
				if err != nil {
					return err
				}
				if !strings.Contains(body, fmt.Sprintf("content-%d", i-1)) {
					return fmt.Errorf("wiki: view %d mismatch: %.80q", i, body)
				}
			}
		}

		conn, err := prog.Net().Dial(clientHostIP, simnet.Addr{Host: core.DefaultHostIP, Port: port})
		if err == nil {
			_, _ = conn.Write([]byte("GET /quit HTTP/1.1\r\n\r\n"))
			_, _ = readAll(conn)
			conn.Close()
		}
		if err := srv.Join(); err != nil {
			return err
		}
		if err := glue.Join(); err != nil {
			return err
		}
		return proxy.Join()
	})
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
	prog, err := buildWiki(kind, "", "", core.WithTracer(tr), core.WithAudit())
	if err != nil {
		return AuditOutcome{}, err
	}
	if err := driveWiki(prog, AuditRequests); err != nil {
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

	enforced, err := buildWiki(kind, out.Derived["http-server"], out.Derived["db-proxy"])
	if err != nil {
		return out, fmt.Errorf("building with derived policies: %w", err)
	}
	if err := driveWiki(enforced, AuditRequests); err != nil {
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
