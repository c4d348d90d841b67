package bench

import (
	"github.com/litterbox-project/enclosure/internal/apps/fasthttp"
	"github.com/litterbox-project/enclosure/internal/apps/httpserv"
	"github.com/litterbox-project/enclosure/internal/apps/wiki"
	"github.com/litterbox-project/enclosure/internal/core"
)

// CorpusApp is one benchmark application the privilege analyzer can
// mine and re-run: its declared per-enclosure policies and an exercise
// function that builds the program with the given policies (falling
// back to the declared literal for enclosures the map omits) and
// drives the full workload.
//
// Mining runs Exercise with every policy forced to "" plus
// core.WithAudit(): the empty policy denies everything, so the audit
// recorder observes the complete footprint and Audit.Derive emits the
// minimal literal. The derived literals are then fed back through
// Exercise — this time enforcing — and the run must stay fault-free.
type CorpusApp struct {
	Name     string
	Declared map[string]string
	Exercise func(kind core.BackendKind, policies map[string]string, opts ...core.Option) (*core.Program, error)
}

// policyOr returns the enclosure's policy from the override map, or
// the declared fallback. An entry that is present but empty is an
// explicit "no policy" (the audit-mining shape) and wins.
func policyOr(policies map[string]string, encl, declared string) string {
	if p, ok := policies[encl]; ok {
		return p
	}
	return declared
}

// CorpusApps enumerates the benchmark applications of the analysis
// corpus: every app in internal/apps exercised through its Table 2 /
// Figure 5 workload.
func CorpusApps() []CorpusApp {
	return []CorpusApp{
		{
			Name:     "bild",
			Declared: map[string]string{"invert": BildPolicy},
			Exercise: func(kind core.BackendKind, policies map[string]string, opts ...core.Option) (*core.Program, error) {
				prog, err := buildBild(kind, policyOr(policies, "invert", BildPolicy), opts...)
				if err != nil {
					return nil, err
				}
				_, err = driveBild(prog)
				return prog, err
			},
		},
		{
			Name:     "httpserv",
			Declared: map[string]string{"handler": httpserv.HandlerPolicy},
			Exercise: func(kind core.BackendKind, policies map[string]string, opts ...core.Option) (*core.Program, error) {
				prog, err := httpserv.Program(kind, policyOr(policies, "handler", httpserv.HandlerPolicy), opts...)
				if err != nil {
					return nil, err
				}
				// A short loop: the syscall footprint saturates within a
				// few requests, and the corpus sweeps 4 backends.
				_, err = runClosedLoop(prog, httpLoop(prog, 8080, 20))
				return prog, err
			},
		},
		{
			Name:     "fasthttp",
			Declared: map[string]string{"server": fasthttp.Policy},
			Exercise: func(kind core.BackendKind, policies map[string]string, opts ...core.Option) (*core.Program, error) {
				prog, err := fasthttp.Program(kind, policyOr(policies, "server", fasthttp.Policy), opts...)
				if err != nil {
					return nil, err
				}
				_, err = runClosedLoop(prog, fastHTTPLoop(prog, 8081, 20, "/", httpserv.PageSize13KB))
				return prog, err
			},
		},
		{
			Name: "wiki",
			Declared: map[string]string{
				"http-server": wiki.PolicyServer,
				"db-proxy":    wiki.PolicyProxy,
			},
			Exercise: func(kind core.BackendKind, policies map[string]string, opts ...core.Option) (*core.Program, error) {
				prog, err := wiki.Program(kind,
					policyOr(policies, "http-server", wiki.PolicyServer),
					policyOr(policies, "db-proxy", wiki.PolicyProxy), opts...)
				if err != nil {
					return nil, err
				}
				return prog, exerciseWiki(prog)
			},
		},
	}
}
