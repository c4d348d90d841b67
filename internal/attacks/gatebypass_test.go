package attacks

import (
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/mpk"
)

// TestGateBypassPlainScanMisses is the acceptance pin for the gadget
// scanner: both seeded modules pass the plain per-section aligned
// opcode scan — only the decode-aware gadget scan sees them.
func TestGateBypassPlainScanMisses(t *testing.T) {
	for _, variant := range []GateBypassVariant{StraddleWRPKRU, MidGateCall} {
		t.Run(variant.String(), func(t *testing.T) {
			w, err := buildGateBypassWorld(core.Baseline)
			if err != nil {
				t.Fatal(err)
			}
			_, secs, _, err := PlantGateBypassModule(w, variant)
			if err != nil {
				t.Fatal(err)
			}
			unit := mpk.NewUnit(w.space)
			for _, sec := range secs {
				if sec.Kind != mem.KindText {
					continue
				}
				if err := unit.ScanText(sec); err != nil {
					t.Fatalf("plain scan caught %s in %s — the gadget is not hidden: %v",
						variant, sec.Name, err)
				}
			}
		})
	}
}

// TestGateBypassContainedByTrio: MPK rejects the module statically at
// import; VTX and CHERI let it in but contain the escalation at the
// fetch/read.
func TestGateBypassContainedByTrio(t *testing.T) {
	for _, variant := range []GateBypassVariant{StraddleWRPKRU, MidGateCall} {
		for _, kind := range []core.BackendKind{core.MPK, core.VTX, core.CHERI} {
			t.Run(variant.String()+"/"+kind.String(), func(t *testing.T) {
				rep, err := RunGateBypass(kind, variant)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Blocked {
					t.Fatalf("%s not contained: %+v", kind, rep)
				}
				if rep.LootBytes != 0 {
					t.Fatalf("%s leaked %d bytes: %+v", kind, rep.LootBytes, rep)
				}
				if kind == core.MPK {
					if rep.FaultOp == "" || rep.FaultOp[:12] != "import-scan:" {
						t.Fatalf("MPK must block at import scan, got %q", rep.FaultOp)
					}
				} else if !rep.LegitOK {
					t.Fatalf("%s blocked the module's legitimate functionality: %+v", kind, rep)
				}
			})
		}
	}
}

// TestGateBypassBaselineCompromised demonstrates the attack works when
// nothing enforces.
func TestGateBypassBaselineCompromised(t *testing.T) {
	for _, variant := range []GateBypassVariant{StraddleWRPKRU, MidGateCall} {
		rep, err := RunGateBypass(core.Baseline, variant)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Blocked || rep.LootBytes == 0 {
			t.Fatalf("baseline should be compromised by %s: %+v", variant, rep)
		}
	}
}
