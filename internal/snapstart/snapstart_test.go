package snapstart_test

import (
	"bytes"
	"testing"

	"github.com/litterbox-project/enclosure/internal/probe"
	"github.com/litterbox-project/enclosure/internal/snapstart"
)

var backends = []string{"baseline", "mpk", "vtx", "cheri"}

// capture cold-builds a seeded probe world under one backend and
// captures it as a template.
func capture(t *testing.T, backend string) (*snapstart.Template, *probe.World) {
	t.Helper()
	w, err := probe.BuildWorld(probe.Gen(0x5EED, 0).Spec, backend)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := snapstart.Capture(snapstart.Parts{
		Space: w.LB.Space, Img: w.Img, K: w.K, Proc: w.LB.Proc, LB: w.LB,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tmpl, w
}

// TestTemplateStatsCountClonesAndRecycles pins what Stats counts: one
// clone per instance built (the capture's validation instance counts
// once and is handed to the first Instantiate), one recycle per
// in-place Recycle of any of the template's instances.
func TestTemplateStatsCountClonesAndRecycles(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			tmpl, _ := capture(t, backend)
			check := func(when string, clones, recycles int64) {
				t.Helper()
				if c, r := tmpl.Stats(); c != clones || r != recycles {
					t.Fatalf("%s: Stats() = (%d, %d), want (%d, %d)", when, c, r, clones, recycles)
				}
			}
			check("after capture", 1, 0)
			a, err := tmpl.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			check("after the first Instantiate", 1, 0)
			b, err := tmpl.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			check("after the second Instantiate", 2, 0)
			for _, inst := range []*snapstart.Instance{a, a, b} {
				if err := inst.Recycle(); err != nil {
					t.Fatal(err)
				}
			}
			check("after three recycles", 2, 3)
			if a.Recycles() != 2 || b.Recycles() != 1 {
				t.Fatalf("per-instance recycles = %d, %d; want 2, 1", a.Recycles(), b.Recycles())
			}
		})
	}
}

// TestRecycleRevertsInstanceWrite checks the tenant boundary: a write
// made in an instance stays out of the template and is rolled back to
// the template's bytes by Recycle.
func TestRecycleRevertsInstanceWrite(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			tmpl, w := capture(t, backend)
			span := w.Spans[0]
			want := make([]byte, 16)
			if err := w.LB.Space.ReadAt(span.Base, want); err != nil {
				t.Fatal(err)
			}
			inst, err := tmpl.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			addr := inst.Remap(tmpl.Remap(span)).Base
			secret := []byte("tenant-0-secret!")
			if err := inst.Space.WriteAt(addr, secret); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			if err := inst.Space.ReadAt(addr, got); err != nil || !bytes.Equal(got, secret) {
				t.Fatalf("instance write not visible in the instance: %q, %v", got, err)
			}
			if err := w.LB.Space.ReadAt(span.Base, got); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("instance write leaked into the template: %q, %v", got, err)
			}
			if err := inst.Recycle(); err != nil {
				t.Fatal(err)
			}
			if err := inst.Space.ReadAt(addr, got); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("after Recycle the span reads %q, want the template's %q (err %v)", got, want, err)
			}
		})
	}
}
