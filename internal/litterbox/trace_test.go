package litterbox_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mpk"
)

func TestTraceRecordsEnforcementEvents(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewMPK(mpk.NewUnit(f.space)))
	tr := lb.EnableTrace(64)
	if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
		t.Fatal(err)
	}
	token := f.img.Enclosures[0].Token

	env, err := lb.Prolog(f.cpu, lb.Trusted(), 1, token)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lb.SyscallGateway(f.cpu, env, litterbox.SyscallReq{Nr: kernel.NrGetuid}); err != nil {
		t.Fatal(err)
	}
	if err := lb.Epilog(f.cpu, env, lb.Trusted(), 1, token); err != nil {
		t.Fatal(err)
	}
	// A fault gets traced too.
	sec := f.img.Packages["main"].Data
	_, _ = lb.Prolog(f.cpu, lb.Trusted(), 1, token)
	_ = lb.CheckWrite(f.cpu, env, sec.Base, 1) // main is outside e1's... actually main IS in view; use super
	_ = lb.CheckWrite(f.cpu, env, f.img.PkgsSec.Base, 1)

	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	var kinds []string
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	joined := strings.Join(kinds, ",")
	for _, want := range []string{"prolog", "syscall", "epilog", "fault"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q: %v", want, joined)
		}
	}
	// Virtual timestamps are monotone.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("timestamps not monotone: %v", events)
		}
	}
	if tr.String() == "" {
		t.Error("empty trace rendering")
	}

	lb.DisableTrace()
	before := len(tr.Events())
	_, _ = lb.Prolog(f.cpu, lb.Trusted(), 1, token)
	if len(tr.Events()) != before {
		t.Error("events recorded after DisableTrace")
	}
}

func TestTraceRingWraps(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewBaseline())
	tr := lb.EnableTrace(4)
	if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := lb.SyscallGateway(f.cpu, lb.Trusted(), litterbox.SyscallReq{Nr: kernel.NrGetpid}); err != nil {
			t.Fatal(err)
		}
	}
	// The retention contract: exactly the last capacity events survive,
	// and the aggregates still cover every emission.
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("ring kept %d events, want capacity 4", len(events))
	}
	s := tr.Snapshot()
	if s.Events < 10 {
		t.Fatalf("aggregates counted %d events, want all >= 10", s.Events)
	}
	if s.Dropped != s.Events-4 {
		t.Errorf("Dropped = %d, want Events-capacity = %d", s.Dropped, s.Events-4)
	}
}

// TestFaultDetailRenderedOnDemand: a denied access keeps its address,
// size and cause, and the detail Error, the trace and Detail render
// from them is the "addr+size: cause" text, byte for byte.
func TestFaultDetailRenderedOnDemand(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewMPK(mpk.NewUnit(f.space)))
	tr := lb.EnableTrace(64)
	if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
		t.Fatal(err)
	}
	token := f.img.Enclosures[0].Token
	env, err := lb.Prolog(f.cpu, lb.Trusted(), 1, token)
	if err != nil {
		t.Fatal(err)
	}
	sec := f.img.Packages["secrets"].Data // read-only in e1
	var flt *litterbox.Fault
	if err := lb.CheckWrite(f.cpu, env, sec.Base+8, 4); !errors.As(err, &flt) {
		t.Fatalf("write to read-only secrets: %v, want fault", err)
	}
	want := fmt.Sprintf("%s+%d: %v", sec.Base+8, 4, flt.Cause)
	if got := flt.Detail(); got != want {
		t.Fatalf("Detail() = %q, want %q", got, want)
	}
	if got, wantErr := flt.Error(), fmt.Sprintf("litterbox: fault in %s: write %s", env, want); got != wantErr {
		t.Fatalf("Error() = %q, want %q", got, wantErr)
	}
	events := tr.Events()
	if last := events[len(events)-1]; last.Kind != "fault" || last.Detail != "write "+want {
		t.Fatalf("fault event %q %q, want detail %q", last.Kind, last.Detail, "write "+want)
	}
}
