package seccomp

import (
	"testing"
	"testing/quick"
)

// evalDirect is the reference semantics a compiled filter must match.
func evalDirect(rules []EnvRule, d *Data, defaultAction, denyAction uint32) uint32 {
	if d.Arch != AuditArchSim {
		return RetKillProcess
	}
	for _, r := range rules {
		if r.PKRU != d.PKRU {
			continue
		}
		if r.ConnectNr != 0 && len(r.ConnectAllow) > 0 && d.Nr == r.ConnectNr {
			for _, h := range r.ConnectAllow {
				if uint32(d.Args[1]) == h {
					return RetAllow
				}
			}
			return denyAction
		}
		for _, nr := range r.Allowed {
			if nr == d.Nr {
				return RetAllow
			}
		}
		return denyAction
	}
	return defaultAction
}

func TestCompileFilterBasic(t *testing.T) {
	rules := []EnvRule{
		{PKRU: 0x10, Allowed: []uint32{1, 2, 3}},
		{PKRU: 0x20, Allowed: []uint32{7}},
	}
	prog, err := CompileFilter(rules, RetTrap, RetTrap)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		pkru, nr, want uint32
	}{
		{0x10, 2, RetAllow},
		{0x10, 7, RetTrap},
		{0x20, 7, RetAllow},
		{0x20, 1, RetTrap},
		{0x30, 1, RetTrap}, // unknown environment -> default
	}
	for _, c := range cases {
		got, err := prog.Run(&Data{Nr: c.nr, Arch: AuditArchSim, PKRU: c.pkru})
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("pkru=%#x nr=%d: %#x, want %#x", c.pkru, c.nr, got, c.want)
		}
	}
}

func TestCompileFilterWrongArchKills(t *testing.T) {
	prog, err := CompileFilter([]EnvRule{{PKRU: 1, Allowed: []uint32{1}}}, RetTrap, RetTrap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.Run(&Data{Nr: 1, Arch: 0x1234, PKRU: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ActionOf(got) != RetKillProcess {
		t.Fatalf("foreign arch verdict %#x", got)
	}
}

func TestCompileFilterConnectAllowlist(t *testing.T) {
	const nrConnect = 13
	rules := []EnvRule{{
		PKRU:         0x40,
		Allowed:      []uint32{11, 12, nrConnect},
		ConnectNr:    nrConnect,
		ConnectAllow: []uint32{0x0A000002}, // 10.0.0.2
	}}
	prog, err := CompileFilter(rules, RetTrap, RetTrap)
	if err != nil {
		t.Fatal(err)
	}
	allowed, _ := prog.Run(&Data{Nr: nrConnect, Arch: AuditArchSim, PKRU: 0x40,
		Args: [6]uint64{3, 0x0A000002, 5432}})
	if allowed != RetAllow {
		t.Fatalf("allow-listed connect: %#x", allowed)
	}
	denied, _ := prog.Run(&Data{Nr: nrConnect, Arch: AuditArchSim, PKRU: 0x40,
		Args: [6]uint64{3, 0x06060606, 80}})
	if denied != RetTrap {
		t.Fatalf("exfiltration connect: %#x", denied)
	}
	// Other allowed syscalls unaffected.
	other, _ := prog.Run(&Data{Nr: 11, Arch: AuditArchSim, PKRU: 0x40})
	if other != RetAllow {
		t.Fatalf("send after connect block: %#x", other)
	}
}

// TestCompileFilterProperty: the compiled BPF program agrees with the
// direct rule evaluation on arbitrary inputs.
func TestCompileFilterProperty(t *testing.T) {
	f := func(seed uint32, nr uint8, pkruSel uint8, arg1 uint32) bool {
		rng := seed | 1
		next := func() uint32 {
			rng = rng*1664525 + 1013904223
			return rng
		}
		// Build 1-4 rules with distinct PKRUs.
		nRules := int(next()%4) + 1
		rules := make([]EnvRule, 0, nRules)
		for i := 0; i < nRules; i++ {
			r := EnvRule{PKRU: uint32(i+1) * 0x11}
			for n := 0; n < int(next()%6); n++ {
				r.Allowed = append(r.Allowed, next()%20)
			}
			if next()%2 == 0 {
				r.ConnectNr = 13
				r.Allowed = append(r.Allowed, 13)
				r.ConnectAllow = []uint32{next() % 4, next() % 4}
			}
			rules = append(rules, r)
		}
		prog, err := CompileFilter(rules, RetTrap, RetErrno)
		if err != nil {
			return false
		}
		d := &Data{
			Nr:   uint32(nr % 22),
			Arch: AuditArchSim,
			PKRU: uint32(pkruSel%6) * 0x11,
			Args: [6]uint64{0, uint64(arg1 % 5)},
		}
		got, err := prog.Run(d)
		if err != nil {
			return false
		}
		return got == evalDirect(rules, d, RetTrap, RetErrno)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestCompileFilterLargeBlockTrampoline is the regression test for env
// blocks past the 8-bit conditional-jump reach: a 100-entry allowlist
// compiles to such a block, so the PKRU dispatch must chain through an
// OpJmpJA trampoline — and still produce the right verdicts on both
// sides of the jump.
func TestCompileFilterLargeBlockTrampoline(t *testing.T) {
	var nrs []uint32
	for i := uint32(0); i < 100; i++ {
		nrs = append(nrs, i)
	}
	rules := []EnvRule{
		{PKRU: 1, Allowed: nrs},
		{PKRU: 2, Allowed: []uint32{7}}, // dispatched after the long block
	}
	prog, err := CompileFilter(rules, RetTrap, RetErrno)
	if err != nil {
		t.Fatalf("oversized block no longer compiles: %v", err)
	}
	cases := []struct {
		pkru, nr, want uint32
	}{
		{1, 0, RetAllow},
		{1, 99, RetAllow},
		{1, 100, RetErrno}, // inside the matched block, past the list
		{2, 7, RetAllow},   // trampoline must land exactly on this block
		{2, 99, RetErrno},
		{3, 7, RetTrap}, // no rule -> default
	}
	for _, c := range cases {
		got, err := prog.Run(&Data{Nr: c.nr, Arch: AuditArchSim, PKRU: c.pkru})
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("pkru=%d nr=%d: %#x, want %#x", c.pkru, c.nr, got, c.want)
		}
	}
}

// TestCompileFilterLargeConnectTrampoline drives the second trampoline
// site: a connect allowlist long enough that the connect sub-block
// exceeds the 8-bit skip from the nr comparison.
func TestCompileFilterLargeConnectTrampoline(t *testing.T) {
	const nrConnect = 13
	r := EnvRule{PKRU: 5, Allowed: []uint32{1, nrConnect}, ConnectNr: nrConnect}
	for i := uint32(0); i < 200; i++ {
		r.ConnectAllow = append(r.ConnectAllow, 0x0A000000+i)
	}
	prog, err := CompileFilter([]EnvRule{r}, RetTrap, RetErrno)
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := prog.Run(&Data{Nr: nrConnect, Arch: AuditArchSim, PKRU: 5,
		Args: [6]uint64{0, 0x0A0000C7}})
	if ok != RetAllow {
		t.Fatalf("allow-listed connect: %#x", ok)
	}
	bad, _ := prog.Run(&Data{Nr: nrConnect, Arch: AuditArchSim, PKRU: 5,
		Args: [6]uint64{0, 0x06060606}})
	if bad != RetErrno {
		t.Fatalf("exfiltration connect: %#x", bad)
	}
	// A non-connect nr must skip the long sub-block onto the allow list.
	other, _ := prog.Run(&Data{Nr: 1, Arch: AuditArchSim, PKRU: 5})
	if other != RetAllow {
		t.Fatalf("non-connect call after long sub-block: %#x", other)
	}
}

func TestCompileFilterDeterministic(t *testing.T) {
	rules := []EnvRule{
		{PKRU: 0x30, Allowed: []uint32{9, 1, 5}},
		{PKRU: 0x10, Allowed: []uint32{2}},
	}
	a, err := CompileFilter(rules, RetTrap, RetTrap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileFilter([]EnvRule{rules[1], rules[0]}, RetTrap, RetTrap)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("program length depends on rule order: %d vs %d", a.Len(), b.Len())
	}
}
