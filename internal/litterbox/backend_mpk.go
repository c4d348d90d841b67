package litterbox

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/mpk"
	"github.com/litterbox-project/enclosure/internal/ring"
	"github.com/litterbox-project/enclosure/internal/seccomp"
)

// ErrTooManyMetaPkgs is retained for API stability; since libmpk-style
// key virtualisation was implemented (mpk_virt.go) it is only returned
// when a *single* memory view needs more meta-packages than the key
// cache holds (see ErrViewTooWide).
var ErrTooManyMetaPkgs = errors.New("litterbox/mpk: more meta-packages than protection keys")

// MPKBackend is LB_MPK (§5.3): one protection key per meta-package, an
// execution environment is simply a PKRU value, switches are PKRU
// writes, transfers are pkey_mprotect calls, and system calls are
// filtered by a seccomp BPF program indexed by the PKRU value.
type MPKBackend struct {
	unit *mpk.Unit
	lb   *LitterBox

	keyByMeta []int          // meta-package index → protection key
	keyOf     map[string]int // package → protection key
	superKey  int
	virt      *virtState // non-nil when keys are virtualised

	// colorBySig disambiguates environments that share a memory view —
	// and so would share a PKRU value — but disagree on syscall policy
	// (categories or connect allowlist). Because the seccomp filter is
	// indexed by PKRU alone, such aliases would otherwise intersect
	// their syscall masks and deny calls the other backends allow. The
	// fix encodes a per-(base PKRU, policy signature) "color" into the
	// rights bits of spare protection keys: keys allocated to no
	// meta-package tag no pages, so their PKRU bits are architecturally
	// inert for memory access yet still distinguish filter rows —
	// exactly how real PKU sandboxes burn a key as a domain tag.
	// The spare-key set it draws on derives from keyByMeta.
	colorBySig map[pkruColorKey]int

	rules map[uint32]seccomp.EnvRule // PKRU value → syscall rule

	// keysShared (keyByMeta, keyOf, colorBySig) and rulesShared (rules)
	// mark tables aliased with a snapshot template or clone; writers
	// copy them first (ownKeys, ownRules).
	keysShared  bool
	rulesShared bool
}

// ownKeys gives b private copies of shared key-assignment and
// color tables before a write.
func (b *MPKBackend) ownKeys() {
	if !b.keysShared {
		return
	}
	b.keyByMeta = slices.Clone(b.keyByMeta)
	b.keyOf = maps.Clone(b.keyOf)
	b.colorBySig = maps.Clone(b.colorBySig)
	b.keysShared = false
}

// ownRules gives b a private copy of a shared rule table before
// a write.
func (b *MPKBackend) ownRules() {
	if !b.rulesShared {
		return
	}
	b.rules = maps.Clone(b.rules)
	b.rulesShared = false
}

// NewMPK returns an LB_MPK backend over the simulated MPK unit.
func NewMPK(unit *mpk.Unit) *MPKBackend {
	return &MPKBackend{unit: unit, keyOf: make(map[string]int), rules: make(map[uint32]seccomp.EnvRule)}
}

// Name implements Backend.
func (b *MPKBackend) Name() string { return "mpk" }

// Unit exposes the MPK unit (for tests).
func (b *MPKBackend) Unit() *mpk.Unit { return b.unit }

// Setup implements Backend: scan untrusted text for WRPKRU gadgets,
// allocate one key per meta-package, tag every section, derive each
// environment's PKRU, and load the PKRU-indexed seccomp filter.
func (b *MPKBackend) Setup(lb *LitterBox) error {
	b.lb = lb

	// ERIM/Garmr-style scan: only LitterBox may modify PKRU, by any
	// byte path — aligned instructions, operand-embedded sequences,
	// sequences straddling contiguous sections, or direct transfers
	// that land inside the gate past its PKRU check.
	if err := b.gadgetScan(lb); err != nil {
		return err
	}

	metas := lb.MetaPackages()
	// One key per meta-package plus one for super-and-heap-pool state.
	// super is always its own meta-package (no env maps it), so its key
	// doubles as the pool key. With more meta-packages than keys, fall
	// back to libmpk-style key virtualisation (mpk_virt.go).
	if len(metas) > hw.NumKeys-1 {
		if err := b.setupVirt(lb, metas); err != nil {
			return err
		}
		for id := EnvID(0); ; id++ {
			env, ok := lb.Env(id)
			if !ok {
				break
			}
			b.derivePKRUVirt(env, metas)
			b.addRule(env)
		}
		b.lb.Kernel.SetPkeyOps(b.unit)
		return b.reloadFilter()
	}
	b.keyByMeta = make([]int, len(metas))
	for i, group := range metas {
		key, errno := b.unit.PkeyAlloc()
		if errno != kernel.OK {
			return fmt.Errorf("litterbox/mpk: pkey_alloc: %v", errno)
		}
		b.keyByMeta[i] = key
		for _, pkg := range group {
			b.keyOf[pkg] = key
		}
	}
	sk, ok := b.keyOf[superName]
	if !ok {
		return fmt.Errorf("litterbox/mpk: %s missing from clustering", superName)
	}
	b.superKey = sk
	b.keyOf[kernel.HeapOwner] = sk // pooled spans are invisible to all views

	// Tag every section with its owner's key.
	for _, sec := range lb.Space.Sections() {
		key, ok := b.keyOf[sec.Pkg]
		if !ok {
			key = b.superKey // unknown owners default to inaccessible
		}
		if errno := b.unit.PkeyMprotect(sec.Base, sec.Size, sec.Perm, key); errno != kernel.OK {
			return fmt.Errorf("litterbox/mpk: tagging %s: %v", sec, errno)
		}
	}

	// Derive PKRU values and syscall rules for every environment.
	for id := EnvID(0); ; id++ {
		env, ok := lb.Env(id)
		if !ok {
			break
		}
		b.derivePKRU(env, metas)
		b.addRule(env)
	}
	b.lb.Kernel.SetPkeyOps(b.unit)
	return b.reloadFilter()
}

// gadgetScan classifies every mapped text section as gate text (the
// LitterBox runtime, trusted user glue, enclosure closures) or
// untrusted text, then runs the full gadget scan over the untrusted
// set. Sanctioned gate entries are the closure bases (where the
// compiler put the PKRU check) and the trusted packages' function
// symbols; any other call/jmp-reachable gate offset is a bypass.
// Called at Setup and again on every dynamic import.
func (b *MPKBackend) gadgetScan(lb *LitterBox) error {
	var untrusted []*mem.Section
	gate := mpk.GateInfo{Entries: map[mem.Addr]bool{}}
	for _, sec := range lb.Space.Sections() {
		if sec.Kind != mem.KindText {
			continue
		}
		if sec.Pkg == userName || sec.Pkg == superName || strings.HasPrefix(sec.Name, "closure.") {
			gate.Ranges = append(gate.Ranges, mpk.GateRange{Name: sec.Name, Base: sec.Base, Size: sec.Size})
			if strings.HasPrefix(sec.Name, "closure.") {
				gate.Entries[sec.Base] = true
			}
			continue
		}
		untrusted = append(untrusted, sec)
	}
	for _, name := range []string{userName, superName} {
		if pl := lb.Image.Layout(name); pl != nil {
			for _, sym := range pl.Funcs {
				gate.Entries[sym.Addr] = true
			}
		}
	}
	findings, err := b.unit.ScanGadgets(untrusted, gate)
	if err != nil {
		return err
	}
	return mpk.GadgetError(findings)
}

// derivePKRU computes env's PKRU from its per-meta-package modifier.
func (b *MPKBackend) derivePKRU(env *Env, metas [][]string) {
	if b.virt != nil {
		b.derivePKRUVirt(env, metas)
		return
	}
	pkru := hw.PKRUAllDenied
	for i, group := range metas {
		mod := env.ModOf(group[0])
		key := b.keyByMeta[i]
		pkru = pkru.WithKey(key, mod >= ModR, mod >= ModRW)
	}
	// Keys outside any meta-package (including 0 and the heap pool under
	// superKey) stay denied unless trusted.
	if env.Trusted {
		for k := 0; k < hw.NumKeys; k++ {
			pkru = pkru.WithKey(k, true, true)
		}
		pkru = pkru.WithKey(b.superKey, false, false)
	} else {
		pkru = b.colorize(env, pkru)
	}
	env.PKRU = pkru
}

// pkruColorKey identifies one (base PKRU, syscall-policy signature)
// combination needing its own filter row.
type pkruColorKey struct {
	base uint32
	sig  string
}

// policySig canonically renders the parts of an environment's policy
// the seccomp filter enforces but the PKRU does not encode.
func policySig(env *Env) string {
	s := fmt.Sprintf("c%04x", uint16(env.Cats))
	if env.ConnectAllow != nil {
		hosts := cloneHosts(env.ConnectAllow)
		sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
		s += ";ca"
		for _, h := range hosts {
			s += fmt.Sprintf(":%08x", h)
		}
	}
	return s
}

// spareKeys returns the protection keys allocated to no
// meta-package (candidates for color bits), ascending. Key 0 — the
// default key of untracked pages — is never spare. Empty under key
// virtualisation, which claims every key.
func (b *MPKBackend) spareKeys() []int {
	if b.virt != nil {
		return nil
	}
	used := make(map[int]bool, len(b.keyByMeta))
	for _, k := range b.keyByMeta {
		used[k] = true
	}
	var spares []int
	for k := 1; k < hw.NumKeys; k++ {
		if !used[k] {
			spares = append(spares, k)
		}
	}
	return spares
}

// colorDigitBits maps a base-4 color digit to the 2-bit PKRU pattern of
// one spare key. Digit 0 is AD — the pattern hw.PKRUAllDenied already
// holds — so color 0 leaves the base PKRU bit-identical to the
// uncolored derivation.
var colorDigitBits = [4]uint32{0b01, 0b10, 0b00, 0b11}

// colorize returns base with env's color encoded into the spare keys.
// Distinct policy signatures over the same base receive distinct colors
// (and so distinct PKRU values and filter rows); when the spare keys
// cannot encode another color the base is returned unchanged and the
// aliased rows fall back to the conservative mask intersection.
func (b *MPKBackend) colorize(env *Env, base hw.PKRU) hw.PKRU {
	spares := b.spareKeys()
	if len(spares) == 0 {
		return base
	}
	key := pkruColorKey{base: uint32(base), sig: policySig(env)}
	color, ok := b.colorBySig[key]
	if !ok {
		color = 0
		for k := range b.colorBySig {
			if k.base == key.base {
				color++
			}
		}
		max := 1
		for range spares {
			if max > 1<<20 {
				break
			}
			max *= 4
		}
		if color >= max {
			return base
		}
		b.ownKeys()
		if b.colorBySig == nil {
			b.colorBySig = make(map[pkruColorKey]int)
		}
		b.colorBySig[key] = color
	}
	v := uint32(base)
	for _, k := range spares {
		v &^= 0b11 << (2 * uint(k))
		v |= colorDigitBits[color&3] << (2 * uint(k))
		color >>= 2
	}
	return hw.PKRU(v)
}

// addRule registers env's syscall mask under its PKRU value. Two
// environments sharing a PKRU but disagreeing on categories intersect —
// the conservative, never-escalating resolution.
func (b *MPKBackend) addRule(env *Env) {
	var nrs []uint32
	if env.Trusted {
		for _, n := range kernel.Numbers() {
			nrs = append(nrs, uint32(n))
		}
	} else {
		for _, n := range kernel.NumbersIn(env.Cats) {
			nrs = append(nrs, uint32(n))
		}
	}
	rule := seccomp.EnvRule{PKRU: uint32(env.PKRU), Allowed: nrs}
	if env.Cats.Has(kernel.CatNet) && env.ConnectAllow != nil {
		// nil means unrestricted; a non-nil (even empty) allowlist
		// engages the connect argument check.
		rule.ConnectNr = uint32(kernel.NrConnect)
		rule.ConnectAllow = cloneHosts(env.ConnectAllow)
	}
	if prev, ok := b.rules[rule.PKRU]; ok {
		// PKRU aliases are rare post-colorize (only color exhaustion or
		// virtualised keys): intersect toward the conservative mask.
		rule.Allowed = intersectNrs(prev.Allowed, rule.Allowed)
		switch {
		case prev.ConnectNr != 0 && rule.ConnectNr != 0:
			rule.ConnectAllow = intersectNrs(prev.ConnectAllow, rule.ConnectAllow)
			if rule.ConnectAllow == nil {
				rule.ConnectAllow = []uint32{}
			}
		case prev.ConnectNr != 0:
			rule.ConnectNr = prev.ConnectNr
			rule.ConnectAllow = prev.ConnectAllow
		}
	}
	b.ownRules()
	b.rules[rule.PKRU] = rule
}

func intersectNrs(a, c []uint32) []uint32 {
	in := make(map[uint32]bool, len(a))
	for _, n := range a {
		in[n] = true
	}
	var out []uint32
	for _, n := range c {
		if in[n] {
			out = append(out, n)
		}
	}
	return out
}

// reloadFilter recompiles and installs the filter in both artifact
// forms. The compile goes through the content-addressed cache, so the
// incremental installs CreateEnv triggers (one per materialised
// intersection) and full re-derivations after dynamic imports reuse
// earlier compilations whenever the effective rule set is unchanged.
func (b *MPKBackend) reloadFilter() error {
	rules := make([]seccomp.EnvRule, 0, len(b.rules))
	for _, r := range b.rules {
		rules = append(rules, r)
	}
	art, err := seccomp.CompileArtifactsCached(rules, seccomp.RetTrap, seccomp.RetTrap)
	if err != nil {
		return fmt.Errorf("litterbox/mpk: compiling seccomp filter: %w", err)
	}
	b.lb.Kernel.SetCompiledFilter(art)
	return nil
}

// CreateEnv implements Backend: a lazily materialised intersection
// environment needs a PKRU and a filter rule. Meta-package membership is
// uniform under intersection (members shared modifiers in both parents),
// so the PKRU derivation is unchanged.
func (b *MPKBackend) CreateEnv(env *Env) error {
	b.derivePKRU(env, b.lb.MetaPackages())
	b.addRule(env)
	return b.reloadFilter()
}

// Switch implements Backend: validate the call-site, then one WRPKRU.
// Under key virtualisation, a target view touching cold meta-packages
// first takes the libmpk slow path that pages them into the key cache.
func (b *MPKBackend) Switch(cpu *hw.CPU, from, to *Env, gate Gate) error {
	if err := gate.Check(); err != nil {
		return err
	}
	if b.virt != nil {
		if _, err := b.ensureCached(cpu, to); err != nil {
			return err
		}
	}
	cpu.WritePKRU(to.PKRU)
	return nil
}

// CheckAccess implements Backend via the MPK unit's PKRU enforcement.
func (b *MPKBackend) CheckAccess(cpu *hw.CPU, addr mem.Addr, size uint64, write bool) error {
	return b.unit.CheckAccess(cpu, addr, size, write)
}

// CheckExec implements Backend. MPK protects data accesses only, so the
// fetch-side restriction is enforced at the language level: the compiler
// inserts a view check at every cross-package call site (plus the WRPKRU
// scan that keeps untrusted code from forging these gates). That call
// gate lives here, not in the runtime's common path — VT-x and CHERI
// check the fetch in hardware, and the baseline runs uninstrumented.
func (b *MPKBackend) CheckExec(cpu *hw.CPU, env *Env, pkg string, entry mem.Addr) error {
	if !env.CanExec(pkg) {
		return fmt.Errorf("litterbox/mpk: call gate: %s at %s not executable in this view", pkg, entry)
	}
	return nil
}

// Transfer implements Backend: one pkey_mprotect retags the span with
// the destination arena's key (Table 1: 1002ns end to end).
func (b *MPKBackend) Transfer(cpu *hw.CPU, sec *mem.Section, toPkg string) error {
	if transferInterrupted(cpu) {
		return ErrInjectedTransfer
	}
	key := b.currentKeyOf(toPkg)
	cpu.Clock.Advance(hw.CostPkeyMprotect)
	cpu.Counters.PkeyMprotects++
	if errno := b.unit.PkeyMprotect(sec.Base, sec.Size, sec.Perm, key); errno != kernel.OK {
		return fmt.Errorf("litterbox/mpk: transfer %s to %s: %v", sec, toPkg, errno)
	}
	return nil
}

// Syscall implements Backend: the native syscall path; the kernel's
// PKRU-indexed seccomp filter decides (Table 1: 523ns for getuid).
func (b *MPKBackend) Syscall(cpu *hw.CPU, p *kernel.Proc, env *Env, nr kernel.Nr, args [6]uint64) (uint64, kernel.Errno) {
	return b.lb.Kernel.Invoke(p, cpu, nr, args)
}

// SyscallBatch implements Backend: one trap, then one verdict-table
// lookup per entry against the PKRU-indexed filter — the per-call trap
// and kernel entry are amortized, the filter is not bypassed. Runtime
// entries dispatch unfiltered, as the sequential path's excursion
// through the trusted environment (whose filter row allows everything)
// does.
func (b *MPKBackend) SyscallBatch(cpu *hw.CPU, p *kernel.Proc, env *Env, entries []ring.Entry, out []ring.Completion) int {
	b.lb.Kernel.RingTrap(cpu)
	for i, e := range entries {
		ret, errno := b.lb.Kernel.InvokeRing(p, cpu, !e.Runtime, e.Nr, e.Args)
		if errno == kernel.ESECCOMP && !e.Runtime {
			return i
		}
		out[i] = ring.Completion{Tag: e.Tag, Ret: ret, Errno: errno}
	}
	return -1
}

// KeyOf exposes a package's protection key (for tests; -1 if untagged).
func (b *MPKBackend) KeyOf(pkg string) int {
	if k, ok := b.keyOf[pkg]; ok {
		return k
	}
	return -1
}

// DescribeKeys renders the key assignment for diagnostics.
func (b *MPKBackend) DescribeKeys() string {
	metas := b.lb.MetaPackages()
	var sb strings.Builder
	for i, group := range metas {
		key := 0
		switch {
		case b.virt != nil:
			key = b.virt.physOf[i]
		default:
			key = b.keyByMeta[i]
		}
		label := fmt.Sprintf("key %d", key)
		if b.virt != nil && key == virtColdKey {
			label = "cold (key 15)"
		}
		fmt.Fprintf(&sb, "%s: %s\n", label, strings.Join(group, ", "))
	}
	return sb.String()
}
