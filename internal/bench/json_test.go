package bench

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// smoke is one Collect of every section at the Smoke size, shared by
// the round-trip test and the result checks in check_test.go.
var smoke struct {
	once sync.Once
	r    *Results
	err  error
}

// smokeResults runs the shared Collect once per test binary.
func smokeResults(t *testing.T) *Results {
	t.Helper()
	smoke.once.Do(func() {
		smoke.r, smoke.err = Collect(Smoke, Sections()...)
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return smoke.r
}

func TestCollectResultsRoundTrip(t *testing.T) {
	r := smokeResults(t)
	if len(r.Table1) != 9 {
		t.Errorf("table1 cells %d", len(r.Table1))
	}
	if len(r.Table2) != 9 {
		t.Errorf("table2 cells %d", len(r.Table2))
	}
	if len(r.Figure5) != 3 || len(r.TCB) != 3 {
		t.Errorf("figure5 %d tcb %d", len(r.Figure5), len(r.TCB))
	}
	if len(r.Python) != 4 {
		t.Errorf("python rows %d", len(r.Python))
	}
	if len(r.Security) == 0 {
		t.Error("no security rows")
	}
	if len(r.Ablations) != 4 || r.Figure4 == "" {
		t.Errorf("ablations %d, figure4 %d bytes", len(r.Ablations), len(r.Figure4))
	}
	for _, name := range Sections() {
		text, err := Render(r, name)
		if err != nil || len(strings.TrimSpace(text)) == 0 {
			t.Errorf("section %s renders %q, %v", name, text, err)
		}
	}
	if _, err := Collect(Smoke, "bogus"); err == nil {
		t.Error("Collect accepted an unknown section")
	}
	blob, err := MarshalResults(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Results
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Paper["venue"] != "ASPLOS 2021" {
		t.Errorf("paper reference %v", back.Paper)
	}
	// Sanity on the headline cells.
	for _, e := range back.Table1 {
		if e.Backend == "vtx" && e.Op == "syscall" && e.Ns != 4126 {
			t.Errorf("vtx syscall %v", e.Ns)
		}
	}
	for _, e := range back.Security {
		if e.Protected && e.LootBytes != 0 {
			t.Errorf("protected scenario %s leaked %d bytes", e.Scenario, e.LootBytes)
		}
	}
}
