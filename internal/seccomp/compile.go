package seccomp

import "sort"

// EnvRule describes the system-call mask of one execution environment,
// keyed by the PKRU value that identifies it (the paper compiles
// FilterSyscall "into a BPF filter loaded via seccomp, which indexes the
// current environment (from the PKRU value) to a mask of permitted
// system calls").
type EnvRule struct {
	// PKRU identifies the environment.
	PKRU uint32
	// Allowed lists permitted system-call numbers.
	Allowed []uint32
	// ConnectNr, if non-zero, enables the §6.5 extension: connect(2) is
	// permitted only toward the hosts in ConnectAllow (the low 32 bits
	// of args[1] in this kernel's connect ABI), letting packages like
	// ssh-decorator keep their valid functionality while being unable
	// to contact an exfiltration server. An empty ConnectAllow with
	// ConnectNr set denies every connect.
	ConnectNr    uint32
	ConnectAllow []uint32
}

// sortRules returns the deterministic compilation order shared by the
// BPF program and the verdict table: ascending PKRU, duplicates kept in
// input order (first one wins the dispatch).
func sortRules(rules []EnvRule) []EnvRule {
	sorted := append([]EnvRule(nil), rules...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].PKRU < sorted[j].PKRU })
	return sorted
}

// CompileFilter builds one BPF program dispatching on the PKRU value.
// Syscalls not matched by the current environment's rule return deny;
// a PKRU value with no rule returns defaultAction (the trusted,
// non-enclosed environment typically gets RetAllow via its own rule).
func CompileFilter(rules []EnvRule, defaultAction, denyAction uint32) (*Program, error) {
	return compileSorted(sortRules(rules), defaultAction, denyAction)
}

// compileSorted compiles an already-sorted rule slice (see sortRules).
func compileSorted(sorted []EnvRule, defaultAction, denyAction uint32) (*Program, error) {
	var insns []Insn

	// Architecture pinning, as every real seccomp policy does.
	insns = append(insns,
		Stmt(OpLdAbsW, OffArch),
		Jump(OpJeqK, AuditArchSim, 1, 0),
		Stmt(OpRetK, RetKillProcess),
	)

	for _, r := range sorted {
		block := buildEnvBlock(r, denyAction)
		insns = append(insns, Stmt(OpLdAbsW, OffPKRU))
		insns = append(insns, jumpUnless(OpJeqK, r.PKRU, len(block))...)
		insns = append(insns, block...)
	}
	insns = append(insns, Stmt(OpRetK, defaultAction))
	return Compile(insns)
}

// jumpUnless emits instructions that skip the next n instructions when
// the comparison against A fails. Within the 8-bit reach of conditional
// jumps this is a single jump; beyond it, the condition is inverted and
// chained through an OpJmpJA trampoline, whose 32-bit K reaches any
// block Compile accepts.
func jumpUnless(op uint16, k uint32, n int) []Insn {
	if n <= 255 {
		return []Insn{Jump(op, k, 0, uint8(n))}
	}
	return []Insn{
		Jump(op, k, 1, 0),        // match: hop over the trampoline
		Stmt(OpJmpJA, uint32(n)), // no match: long forward jump
	}
}

// buildEnvBlock emits the body run once the PKRU dispatch matched; it
// must end with a RET on every path and may assume nothing about A.
func buildEnvBlock(r EnvRule, denyAction uint32) []Insn {
	var block []Insn

	// ConnectNr alone engages the argument check: an empty (but
	// engaged) allowlist emits a block that denies every connect, which
	// is how an intersection of disjoint allowlists must compile.
	if r.ConnectNr != 0 {
		// ld nr; jeq connect, 0, skip; ld arg1; (jeq ip,0,1; ret allow)*; ret deny
		sub := []Insn{Stmt(OpLdAbsW, OffArgs+8)} // args[1] low word: dest host
		for _, ip := range r.ConnectAllow {
			sub = append(sub,
				Jump(OpJeqK, ip, 0, 1),
				Stmt(OpRetK, RetAllow),
			)
		}
		sub = append(sub, Stmt(OpRetK, denyAction))
		block = append(block, Stmt(OpLdAbsW, OffNr))
		block = append(block, jumpUnless(OpJeqK, r.ConnectNr, len(sub))...)
		block = append(block, sub...)
	}

	allowed := append([]uint32(nil), r.Allowed...)
	sort.Slice(allowed, func(i, j int) bool { return allowed[i] < allowed[j] })
	for _, nr := range allowed {
		if nr == r.ConnectNr && r.ConnectNr != 0 {
			continue // already handled with argument checks
		}
		block = append(block,
			Stmt(OpLdAbsW, OffNr),
			Jump(OpJeqK, nr, 0, 1),
			Stmt(OpRetK, RetAllow),
		)
	}
	block = append(block, Stmt(OpRetK, denyAction))
	return block
}
