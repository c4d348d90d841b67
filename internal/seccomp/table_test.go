package seccomp

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestVerdictTableBasic(t *testing.T) {
	rules := []EnvRule{
		{PKRU: 0x10, Allowed: []uint32{1, 2, 3}},
		{PKRU: 0x20, Allowed: []uint32{7}},
	}
	art, err := CompileArtifacts(rules, RetTrap, RetErrno)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		pkru, nr, want uint32
	}{
		{0x10, 2, RetAllow},
		{0x10, 7, RetErrno},
		{0x20, 7, RetAllow},
		{0x20, 1, RetErrno},
		{0x30, 1, RetTrap}, // unknown environment -> default
		{0x10, 4096, RetErrno},
	}
	for _, c := range cases {
		d := &Data{Nr: c.nr, Arch: AuditArchSim, PKRU: c.pkru}
		if got := art.Table.Verdict(d); got != c.want {
			t.Errorf("table pkru=%#x nr=%d: %#x, want %#x", c.pkru, c.nr, got, c.want)
		}
		ref, err := art.Prog.Run(d)
		if err != nil {
			t.Fatal(err)
		}
		if got := art.Table.Verdict(d); got != ref {
			t.Errorf("table diverges from program: pkru=%#x nr=%d", c.pkru, c.nr)
		}
	}
	if art.Table.Verdict(&Data{Nr: 1, Arch: 0xBAD, PKRU: 0x10}) != RetKillProcess {
		t.Error("foreign arch must kill")
	}
	if art.Table.Envs() != 2 {
		t.Errorf("Envs() = %d, want 2", art.Table.Envs())
	}
}

func TestVerdictTableConnect(t *testing.T) {
	const nrConnect = 13
	rules := []EnvRule{{
		PKRU:         0x40,
		Allowed:      []uint32{11, nrConnect},
		ConnectNr:    nrConnect,
		ConnectAllow: []uint32{0x0A000002},
	}}
	art, err := CompileArtifacts(rules, RetTrap, RetTrap)
	if err != nil {
		t.Fatal(err)
	}
	tbl := art.Table
	if got := tbl.Verdict(&Data{Nr: nrConnect, Arch: AuditArchSim, PKRU: 0x40,
		Args: [6]uint64{3, 0x0A000002}}); got != RetAllow {
		t.Fatalf("allow-listed connect: %#x", got)
	}
	if got := tbl.Verdict(&Data{Nr: nrConnect, Arch: AuditArchSim, PKRU: 0x40,
		Args: [6]uint64{3, 0x06060606}}); got != RetTrap {
		t.Fatalf("exfiltration connect: %#x", got)
	}
	if got := tbl.Verdict(&Data{Nr: 11, Arch: AuditArchSim, PKRU: 0x40}); got != RetAllow {
		t.Fatalf("non-connect call: %#x", got)
	}

	// An engaged empty allowlist blocks every connect — even when the
	// nr is also in Allowed (the intersection-of-disjoint-sets case).
	rules[0].ConnectAllow = nil
	art2, err := CompileArtifacts(rules, RetTrap, RetTrap)
	if err != nil {
		t.Fatal(err)
	}
	d := &Data{Nr: nrConnect, Arch: AuditArchSim, PKRU: 0x40, Args: [6]uint64{3, 0x0A000002}}
	if got := art2.Table.Verdict(d); got != RetTrap {
		t.Fatalf("engaged empty allowlist must deny: %#x", got)
	}
	ref, _ := art2.Prog.Run(d)
	if ref != RetTrap {
		t.Fatalf("reference disagrees: %#x", ref)
	}
}

// genRules derives a pseudo-random rule set from a seed, including
// duplicate PKRU values (first-wins dispatch must agree between the
// program and the table) and engaged-but-empty connect allowlists.
func genRules(seed uint32) []EnvRule {
	rng := seed | 1
	next := func() uint32 {
		rng = rng*1664525 + 1013904223
		return rng
	}
	nRules := int(next()%5) + 1
	rules := make([]EnvRule, 0, nRules)
	for i := 0; i < nRules; i++ {
		// %4 forces PKRU collisions between rules regularly.
		r := EnvRule{PKRU: (next() % 4) * 0x11}
		for n := 0; n < int(next()%8); n++ {
			r.Allowed = append(r.Allowed, next()%24)
		}
		switch next() % 3 {
		case 0:
			r.ConnectNr = 13
			r.Allowed = append(r.Allowed, 13)
			r.ConnectAllow = []uint32{next() % 4, next() % 4}
		case 1:
			r.ConnectNr = 13 // engaged, empty allowlist
		}
		rules = append(rules, r)
	}
	return rules
}

// TestVerdictTableMatchesProgramProperty: on arbitrary rule sets and
// inputs, the O(1) table returns exactly what the BPF interpreter does.
func TestVerdictTableMatchesProgramProperty(t *testing.T) {
	f := func(seed uint32, nr uint8, pkruSel uint8, arg1 uint32, badArch bool) bool {
		art, err := CompileArtifacts(genRules(seed), RetTrap, RetErrno)
		if err != nil {
			return false
		}
		arch := uint32(AuditArchSim)
		if badArch {
			arch = 0xBAD
		}
		d := &Data{
			Nr:   uint32(nr % 26),
			Arch: arch,
			PKRU: uint32(pkruSel%5) * 0x11,
			Args: [6]uint64{0, uint64(arg1 % 6)},
		}
		ref, err := art.Prog.Run(d)
		if err != nil {
			return false
		}
		return art.Table.Verdict(d) == ref
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

func TestCompileArtifactsCachedSharing(t *testing.T) {
	rules := []EnvRule{
		{PKRU: 0x10, Allowed: []uint32{3, 1, 2}},
		{PKRU: 0x20, Allowed: []uint32{7}, ConnectNr: 13, ConnectAllow: []uint32{9}},
	}
	a, err := CompileArtifactsCached(rules, RetTrap, RetTrap)
	if err != nil {
		t.Fatal(err)
	}
	// Same policy, different member order and a duplicate entry: the
	// canonical key must coincide and return the same artifact pointer.
	same := []EnvRule{
		{PKRU: 0x20, Allowed: []uint32{7, 7}, ConnectNr: 13, ConnectAllow: []uint32{9}},
		{PKRU: 0x10, Allowed: []uint32{1, 2, 3}},
	}
	b, err := CompileArtifactsCached(same, RetTrap, RetTrap)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical policies must share one artifact")
	}
	// Different deny action is a different policy.
	c, err := CompileArtifactsCached(rules, RetTrap, RetErrno)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different actions must not alias")
	}
	// A connect-engaged empty allowlist differs from no connect rule.
	d1, _ := CompileArtifactsCached([]EnvRule{{PKRU: 1, Allowed: []uint32{2}}}, RetTrap, RetTrap)
	d2, _ := CompileArtifactsCached([]EnvRule{{PKRU: 1, Allowed: []uint32{2}, ConnectNr: 13}}, RetTrap, RetTrap)
	if d1 == d2 {
		t.Fatal("engaged connect check must change the content address")
	}
}

func TestArtifactCacheStatsMove(t *testing.T) {
	h0, m0 := artCache.hits.Load(), artCache.misses.Load()
	rules := []EnvRule{{PKRU: 0xABCD, Allowed: []uint32{1, 2}}}
	if _, err := CompileArtifactsCached(rules, RetTrap, RetTrap); err != nil {
		t.Fatal(err)
	}
	if _, err := CompileArtifactsCached(rules, RetTrap, RetTrap); err != nil {
		t.Fatal(err)
	}
	h1, m1 := artCache.hits.Load(), artCache.misses.Load()
	if h1 <= h0 {
		t.Errorf("hits did not move: %d -> %d", h0, h1)
	}
	if m1 <= m0 {
		t.Errorf("misses did not move: %d -> %d", m0, m1)
	}
}

// FuzzVerdictTableEquivalence: the satellite fuzz target. Raw bytes are
// decoded into an EnvRule set plus a probe Data (PKRU, nr, arg1, arch),
// and the table's verdict must equal the interpreter's on every input —
// including the ConnectNr/ConnectAllow argument path.
func FuzzVerdictTableEquivalence(f *testing.F) {
	mk := func(words ...uint32) []byte {
		out := make([]byte, 0, len(words)*4)
		for _, w := range words {
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], w)
			out = append(out, b[:]...)
		}
		return out
	}
	// seed, nr, pkruSel, arg1, then free-form rule perturbation words.
	f.Add(mk(1, 7, 2, 0, 0x11, 13))
	f.Add(mk(0xFFFF, 13, 0, 3))
	f.Add(mk(42, 13, 1, 1, 0, 0, 0))
	f.Add([]byte{9})

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 16 {
			return
		}
		word := func(i int) uint32 { return binary.LittleEndian.Uint32(raw[i*4:]) }
		rules := genRules(word(0))
		// Perturb the generated rules with the remaining words so the
		// fuzzer controls PKRUs, allowlists, and connect hosts directly.
		for i := 4; i*4+4 <= len(raw) && i < 40; i++ {
			w := word(i)
			r := &rules[int(w>>16)%len(rules)]
			switch w % 4 {
			case 0:
				r.PKRU = w % 8 * 0x11
			case 1:
				r.Allowed = append(r.Allowed, w%30)
			case 2:
				r.ConnectNr = w % 2 * 13
			case 3:
				r.ConnectAllow = append(r.ConnectAllow, w%6)
			}
		}
		art, err := CompileArtifacts(rules, RetTrap, RetErrno)
		if err != nil {
			return // MaxInsns overflow is a legal compile failure
		}
		arch := uint32(AuditArchSim)
		if word(1)%16 == 15 {
			arch = word(1)
		}
		d := &Data{
			Nr:   word(1) % 32,
			Arch: arch,
			PKRU: word(2) % 8 * 0x11,
			Args: [6]uint64{uint64(word(3)), uint64(word(3) % 8)},
		}
		ref, err := art.Prog.Run(d)
		if err != nil {
			t.Fatalf("reference interpreter failed: %v", err)
		}
		if got := art.Table.Verdict(d); got != ref {
			t.Fatalf("fast path diverges: table=%#x prog=%#x pkru=%#x nr=%d arg1=%d rules=%+v",
				got, ref, d.PKRU, d.Nr, d.Args[1], rules)
		}
	})
}

func TestAllowedCount(t *testing.T) {
	rules := []EnvRule{
		{PKRU: 0x10, Allowed: []uint32{1, 2, 3, 200}},
		{PKRU: 0x20, Allowed: []uint32{5, 9}, ConnectNr: 9, ConnectAllow: []uint32{0x0a000001}},
		{PKRU: 0x30, Allowed: nil},
	}
	art, err := CompileArtifacts(rules, RetTrap, RetErrno)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		pkru uint32
		want int
	}{
		{0x10, 4},
		{0x20, 1},  // connect (nr 9) is argument-gated, not unconditional
		{0x30, 0},  // empty surface
		{0x40, -1}, // no rule: default action decides
	}
	for _, c := range cases {
		if got := art.Table.AllowedCount(c.pkru); got != c.want {
			t.Errorf("AllowedCount(%#x) = %d, want %d", c.pkru, got, c.want)
		}
	}
}
