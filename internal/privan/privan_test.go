package privan

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
)

func TestUnionPolicies(t *testing.T) {
	a := litterbox.Policy{
		Mods:         map[string]litterbox.AccessMod{"secrets": litterbox.ModR},
		Cats:         kernel.CatNet,
		ConnectAllow: []uint32{0x0A000002},
	}
	b := litterbox.Policy{
		Mods: map[string]litterbox.AccessMod{"secrets": litterbox.ModRW, "lib": litterbox.ModRWX},
		Cats: kernel.CatIO,
	}
	u := Union(a, b)
	if u.Mods["secrets"] != litterbox.ModRW || u.Mods["lib"] != litterbox.ModRWX {
		t.Fatalf("mods not maxed: %v", u.Mods)
	}
	if u.Cats != kernel.CatNet|kernel.CatIO {
		t.Fatalf("cats not or'd: %v", u.Cats)
	}
	if !reflect.DeepEqual(u.ConnectAllow, []uint32{0x0A000002}) {
		t.Fatalf("connect hosts lost: %v", u.ConnectAllow)
	}
}

func TestUnionConnectUnrestrictedWins(t *testing.T) {
	finite := litterbox.Policy{Cats: kernel.CatNet, ConnectAllow: []uint32{0x0A000002}}
	open := litterbox.Policy{Cats: kernel.CatNet} // nil allowlist = unrestricted
	if u := Union(finite, open); u.ConnectAllow != nil {
		t.Fatalf("unrestricted ∪ finite should stay unrestricted, got %v", u.ConnectAllow)
	}
	// Net granted but no host ever observed: block-all sentinel, not nil.
	none := litterbox.Policy{Cats: kernel.CatNet, ConnectAllow: []uint32{0}}
	if u := Union(none); !reflect.DeepEqual(u.ConnectAllow, []uint32{0}) {
		t.Fatalf("want block-all sentinel, got %v", u.ConnectAllow)
	}
}

func TestUnionLiterals(t *testing.T) {
	u, err := UnionLiterals("secrets:R; sys:io", "secrets:RW; sys:net; connect:10.0.0.2")
	if err != nil {
		t.Fatal(err)
	}
	want := "secrets:RW; sys:net,io; connect:10.0.0.2"
	if got := u.String(); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestDiffExcessAndUndeclared(t *testing.T) {
	declared, err := core.ParsePolicy("secrets:RW; lib:RWX; sys:net,io,file")
	if err != nil {
		t.Fatal(err)
	}
	derived, err := core.ParsePolicy("secrets:R; main:R; sys:net; connect:10.0.0.2")
	if err != nil {
		t.Fatal(err)
	}
	excess, undeclared := Diff(declared, derived)
	wantExcess := []string{"lib:RWX (needs none)", "secrets:RW (needs R)", "sys:io,file", "connect:unrestricted (needs 10.0.0.2)"}
	wantUndecl := []string{"main:R (declared none)"}
	if !reflect.DeepEqual(excess, wantExcess) {
		t.Fatalf("excess: got %v, want %v", excess, wantExcess)
	}
	if !reflect.DeepEqual(undeclared, wantUndecl) {
		t.Fatalf("undeclared: got %v, want %v", undeclared, wantUndecl)
	}
}

func TestDiffEqualPoliciesIsEmpty(t *testing.T) {
	p, err := core.ParsePolicy("secrets:R; sys:net; connect:10.0.0.2")
	if err != nil {
		t.Fatal(err)
	}
	if excess, undeclared := Diff(p, p); len(excess) != 0 || len(undeclared) != 0 {
		t.Fatalf("self-diff not empty: exc=%v und=%v", excess, undeclared)
	}
}

func TestDiffUnusedNetAllowlistIsExcess(t *testing.T) {
	declared, err := core.ParsePolicy("sys:net; connect:10.0.0.50")
	if err != nil {
		t.Fatal(err)
	}
	derived, err := core.ParsePolicy("sys:none")
	if err != nil {
		t.Fatal(err)
	}
	excess, undeclared := Diff(declared, derived)
	if len(undeclared) != 0 {
		t.Fatalf("derived grants nothing; undeclared must be empty, got %v", undeclared)
	}
	want := []string{"sys:net", "connect:10.0.0.50"}
	if !reflect.DeepEqual(excess, want) {
		t.Fatalf("excess: got %v, want %v", excess, want)
	}
}

func TestAttributeSplitsIntersectionEnvs(t *testing.T) {
	into := map[string][]string{}
	Attribute(map[string]string{
		"outer":       "secrets:R; sys:io",
		"outer&inner": "sys:net; connect:10.0.0.2",
	}, into)
	if got := into["outer"]; len(got) != 2 {
		t.Fatalf("outer should receive both literals, got %v", got)
	}
	if got := into["inner"]; len(got) != 1 || got[0] != "sys:net; connect:10.0.0.2" {
		t.Fatalf("inner should receive the intersection literal, got %v", got)
	}
}

// TestAnalyzeCorpusRoundTrip is the satellite round-trip property: for
// every corpus member, mining in audit mode, unioning the derived
// literals, and re-running the workload under enforcement must be
// fault-free — Analyze itself errors if any enforcing replay faults,
// so a nil error IS the round trip. On top of that the derived
// literals must parse back through the same grammar they were derived
// from, and every canonical string must survive a parse/format cycle.
func TestAnalyzeCorpusRoundTrip(t *testing.T) {
	res, err := Analyze(DefaultOptions("../../scenarios"))
	if err != nil {
		t.Fatalf("corpus analysis (mine -> union -> enforce) failed: %v", err)
	}
	if len(res.Entries) < 10 {
		t.Fatalf("suspiciously small corpus: %d entries", len(res.Entries))
	}
	corpora := map[string]bool{}
	for _, e := range res.Entries {
		for _, prefix := range []string{"app:", "attack:", "spec:", "probe:"} {
			if len(e.Corpus) > len(prefix) && e.Corpus[:len(prefix)] == prefix {
				corpora[prefix] = true
			}
		}
		pol, err := core.ParsePolicy(e.Derived)
		if err != nil {
			t.Fatalf("%s: derived literal %q does not parse: %v", e.Key(), e.Derived, err)
		}
		if got := pol.String(); got != e.Derived {
			t.Fatalf("%s: derived literal not canonical: %q -> %q", e.Key(), e.Derived, got)
		}
	}
	if len(corpora) != 4 {
		t.Fatalf("analysis must span all four corpora, got %v", corpora)
	}

	// The JSON report (`enclose privcheck -json`) keeps the field names
	// downstream tooling reads, and the corpus seeds over-privileged
	// enclosures the report must surface.
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Entries []map[string]json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatal(err)
	}
	overPrivileged := 0
	for _, e := range report.Entries {
		for _, k := range []string{"corpus", "enclosure", "declared", "derived", "metrics"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("report entry missing %q: %v", k, e)
			}
		}
		var metrics map[string]json.RawMessage
		if err := json.Unmarshal(e["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"pages_r", "pages_w", "pages_x", "syscalls", "connect_hosts"} {
			if _, ok := metrics[k]; !ok {
				t.Fatalf("report metrics missing %q: %s", k, e["metrics"])
			}
		}
		if _, ok := e["excess"]; ok {
			overPrivileged++
		}
	}
	if overPrivileged == 0 {
		t.Fatal("no over-privileged enclosure in a corpus that seeds several")
	}

	// The analysis gates cleanly against its own ledger...
	if findings := res.Baseline().Compare(res); len(findings) != 0 {
		t.Fatalf("self-comparison must be empty, got %v", findings)
	}
	// ...and determinism: a second run produces the identical ledger.
	res2, err := Analyze(DefaultOptions("../../scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Baseline(), res2.Baseline()) {
		t.Fatal("two analyses of the same corpus disagree")
	}

	// The checked-in repo ledger matches the live analysis (exit-0 leg
	// of the CI gate), and the synthetic growth fixture trips it (the
	// exit-1 leg).
	repoLedger, err := LoadBaseline("../../PRIVILEGE.json")
	if err != nil {
		t.Fatalf("checked-in ledger unreadable: %v", err)
	}
	if findings := repoLedger.Compare(res); len(findings) != 0 {
		t.Fatalf("PRIVILEGE.json is stale, regenerate with `enclose privcheck -update`:\n%v", findings)
	}
	growth, err := LoadBaseline("testdata/growth.json")
	if err != nil {
		t.Fatal(err)
	}
	findings := growth.Compare(res)
	if len(findings) == 0 {
		t.Fatal("growth fixture must produce findings")
	}
	kinds := map[string]bool{}
	for _, f := range findings {
		for key, marker := range map[string]string{
			"missing": "not in baseline", "policy": "derived policy grew", "metrics": "privilege metrics grew",
		} {
			if strings.Contains(f, marker) {
				kinds[key] = true
			}
		}
	}
	if len(kinds) != 3 {
		t.Fatalf("growth fixture should exercise all three finding kinds, got %v in %v", kinds, findings)
	}
}

func TestBaselineVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(`{"version":0,"entries":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(path); err == nil {
		t.Fatal("version-0 baseline must be rejected")
	}
}

func TestBaselineSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	b := &Baseline{Version: BaselineVersion, Entries: map[string]BaselineEntry{
		"app:x/e": {Derived: "sys:none", Metrics: Metrics{PagesR: 3, ConnectHosts: -1}},
	}}
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", b, got)
	}
}

func TestMetricsGrows(t *testing.T) {
	base := Metrics{PagesR: 10, PagesW: 2, Syscalls: 5, ConnectHosts: 1}
	if out := base.grows(base); len(out) != 0 {
		t.Fatalf("metrics never grow past themselves: %v", out)
	}
	cur := Metrics{PagesR: 12, PagesW: 1, Syscalls: 5, ConnectHosts: -1}
	out := cur.grows(base)
	want := []string{"pages(R) 10 -> 12", "connect-hosts 1 -> unrestricted"}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %v, want %v", out, want)
	}
}
