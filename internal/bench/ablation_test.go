package bench

import (
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
)

func TestVirtKeysAblation(t *testing.T) {
	r, err := RunVirtKeysAblation(20)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s (%s): %v", r.Name, r.Detail, r.Metrics)
	if r.Metrics["virtualised"] != 1 {
		t.Error("virtualisation inactive")
	}
	if r.Metrics["meta-packages"] <= 16 {
		t.Errorf("only %.0f meta-packages", r.Metrics["meta-packages"])
	}
	if r.Metrics["remaps"] == 0 {
		t.Error("no eviction slow paths")
	}
	if r.Metrics["pkey_mprotects"] < r.Metrics["remaps"] {
		t.Error("remaps cheaper than a single retag each — accounting broken")
	}
}

func TestSchedulerAblation(t *testing.T) {
	for _, kind := range []core.BackendKind{core.MPK, core.VTX} {
		r, err := RunSchedulerAblation(kind, 8, 10)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s (%s): %v", r.Name, r.Detail, r.Metrics)
		// 8 threads × 10 yields: ≥80 environment-changing resumes.
		if r.Metrics["resumes"] < 80 {
			t.Errorf("%v: resumes %.0f", kind, r.Metrics["resumes"])
		}
	}
	// The cost asymmetry the paper measures: a VTX context switch costs
	// a guest syscall (~442ns) vs MPK's WRPKRU (~20ns).
	mpk, err := RunSchedulerAblation(core.MPK, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	vtx, err := RunSchedulerAblation(core.VTX, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if vtx.Metrics["us-per-ctxs"] <= mpk.Metrics["us-per-ctxs"] {
		t.Errorf("VTX context switch (%.3fus) not costlier than MPK (%.3fus)",
			vtx.Metrics["us-per-ctxs"], mpk.Metrics["us-per-ctxs"])
	}
}

func TestClusteringAblation(t *testing.T) {
	r, err := runClusteringAblation()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s (%s): %v", r.Name, r.Detail, r.Metrics)
	if r.Metrics["fits-16-keys"] != 1 {
		t.Errorf("wiki program needs %.0f keys after clustering", r.Metrics["meta-packages"])
	}
	if r.Metrics["keys-saved"] <= 0 {
		t.Error("clustering saved no keys")
	}
	if r.Metrics["packages"] <= r.Metrics["meta-packages"] {
		t.Error("clustering did not reduce the key count")
	}
}
