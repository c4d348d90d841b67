package attacks

import (
	"errors"

	"github.com/litterbox-project/enclosure/internal/cheri"
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/linker"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/mpk"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
	"github.com/litterbox-project/enclosure/internal/vtx"
)

// --- Scenarios 6 & 7: MPK gate bypass via prebuilt binary gadgets -----
//
// The Garmr observation: ERIM-style protection is only as strong as
// the claim that untrusted text contains no WRPKRU-forming bytes and
// no way to enter the trusted gate past its PKRU check. A plain
// per-section opcode match does not establish that claim. These two
// scenarios ship a malicious *prebuilt* module (think a vendored .so —
// the compiler never saw its call sites, so no language-level gate was
// inserted) that a plugin host imports at runtime:
//
//   - wrpkru-straddle: the module's two link-adjacent text sections
//     are each individually clean, but the last bytes of one and the
//     first byte of the next concatenate to WRPKRU. Executing across
//     the boundary grants every protection key.
//   - midgate-call: the module contains no WRPKRU bytes at all — just
//     a direct CALL whose target lands *inside* the LitterBox runtime
//     text, past the entry point that performs the PKRU check, so the
//     module would run gate internals with its own PKRU still loaded
//     and inherit the gate's unchecked escalation path.
//
// Containment differs by backend, which is the point of the trio:
// LB_MPK must reject the module statically at import (the gadget scan
// — its data-only PKRU cannot stop a fetch at runtime), while LB_VTX
// and LB_CHERI contain the *execution*: the gadget may be mapped, but
// page-table execute bits / capabilities ignore PKRU entirely, so the
// escalated fetch or the post-"escalation" secret read faults.

// GateBypassVariant selects the gadget the malicious module carries.
type GateBypassVariant int

// Gate-bypass variants.
const (
	StraddleWRPKRU GateBypassVariant = iota
	MidGateCall
)

func (v GateBypassVariant) String() string {
	if v == MidGateCall {
		return "midgate-call"
	}
	return "wrpkru-straddle"
}

// gateBypassWorld is the hand-linked world the scenario runs in: a
// plugin host holding no secrets, a vault package outside the plugin
// enclosure's view, and the enclosure the malicious module is imported
// into.
type gateBypassWorld struct {
	img   *linker.Image
	space *mem.AddressSpace
	clock *hw.Clock
	k     *kernel.Kernel
	cpu   *hw.CPU
	lb    *litterbox.LitterBox
	env   *litterbox.Env
}

// buildGateBypassWorld links the world and initialises the backend for
// kind. The "plug" enclosure is declared over the plugins package, so
// its view holds plugins and nothing sensitive.
func buildGateBypassWorld(kind core.BackendKind) (*gateBypassWorld, error) {
	g := pkggraph.New()
	for _, p := range []*pkggraph.Package{
		{Name: "main", Imports: []string{"plugins", "vault"}, Funcs: []string{"Main"}},
		{Name: "vault", Vars: map[string]int{"token": 64}},
		{Name: "plugins", Funcs: []string{"Load", "Dispatch"}, Vars: map[string]int{"registry": 128}},
	} {
		if err := g.Add(p); err != nil {
			return nil, err
		}
	}
	if err := g.AddReserved(&pkggraph.Package{Name: pkggraph.UserPkg}); err != nil {
		return nil, err
	}
	if err := g.AddReserved(&pkggraph.Package{Name: pkggraph.SuperPkg}); err != nil {
		return nil, err
	}
	if err := g.Seal(); err != nil {
		return nil, err
	}
	space := mem.NewAddressSpace(0)
	img, err := linker.Link(g, []linker.DeclInput{
		{Name: "plug", Pkg: "plugins", Policy: "sys:none"},
	}, space)
	if err != nil {
		return nil, err
	}
	clock := hw.NewClock()
	k := kernel.New(space, clock)

	var backend litterbox.Backend
	switch kind {
	case core.MPK:
		backend = litterbox.NewMPK(mpk.NewUnit(space))
	case core.VTX:
		backend = litterbox.NewVTX(vtx.NewMachine(space, clock))
	case core.CHERI:
		backend = litterbox.NewCHERI(cheri.NewUnit(clock))
	default:
		backend = litterbox.NewBaseline()
	}
	lb, err := litterbox.Init(litterbox.Config{
		Image: img, Clock: clock, Kernel: k, Proc: k.NewProc(1, 2, 3),
		Backend: backend,
		Specs: []litterbox.EnclosureSpec{{
			ID: 1, Name: "plug", Pkg: "plugins",
			Policy: litterbox.Policy{Mods: map[string]litterbox.AccessMod{}},
		}},
	})
	if err != nil {
		return nil, err
	}
	env, err := lb.EnvForEnclosure(1)
	if err != nil {
		return nil, err
	}
	return &gateBypassWorld{
		img: img, space: space, clock: clock, k: k,
		cpu: hw.NewCPU(clock), lb: lb, env: env,
	}, nil
}

// PlantGateBypassModule maps the malicious module's sections into the
// space and fills them with the variant's gadget, returning the
// sections to import and the address the "execution" step targets.
// Exposed so tests can show the plain per-section scan passes the very
// bytes the gadget scan rejects.
func PlantGateBypassModule(w *gateBypassWorld, variant GateBypassVariant) (*pkggraph.Package, []*mem.Section, mem.Addr, error) {
	fill := func(sec *mem.Section) error {
		buf := make([]byte, sec.Size)
		for i := range buf {
			buf[i] = byte(0x10 + (i % 0x70))
		}
		return w.space.WriteAt(sec.Base, buf)
	}
	p := &pkggraph.Package{Name: "turbojson", Funcs: []string{"Parse"}, Vars: map[string]int{"tables": 64}}

	switch variant {
	case StraddleWRPKRU:
		// A split .text: common case for prebuilt objects (.text +
		// .text.hot). Each section is clean in isolation.
		t1, err := w.space.Map("turbojson.text", p.Name, mem.KindText, mem.PageSize, mem.PermR|mem.PermX)
		if err != nil {
			return nil, nil, 0, err
		}
		t2, err := w.space.Map("turbojson.text.hot", p.Name, mem.KindText, mem.PageSize, mem.PermR|mem.PermX)
		if err != nil {
			return nil, nil, 0, err
		}
		data, err := w.space.Map("turbojson.data", p.Name, mem.KindData, mem.PageSize, mem.PermR|mem.PermW)
		if err != nil {
			return nil, nil, 0, err
		}
		for _, sec := range []*mem.Section{t1, t2} {
			if err := fill(sec); err != nil {
				return nil, nil, 0, err
			}
		}
		if err := w.space.WriteAt(t1.End()-2, []byte{0x0F, 0x01}); err != nil {
			return nil, nil, 0, err
		}
		if err := w.space.WriteAt(t2.Base, []byte{0xEF}); err != nil {
			return nil, nil, 0, err
		}
		return p, []*mem.Section{t1, t2, data}, t1.End() - 2, nil

	default: // MidGateCall
		text, err := w.space.Map("turbojson.text", p.Name, mem.KindText, mem.PageSize, mem.PermR|mem.PermX)
		if err != nil {
			return nil, nil, 0, err
		}
		data, err := w.space.Map("turbojson.data", p.Name, mem.KindData, mem.PageSize, mem.PermR|mem.PermW)
		if err != nil {
			return nil, nil, 0, err
		}
		if err := fill(text); err != nil {
			return nil, nil, 0, err
		}
		// CALL rel32 into the runtime's text, 24 bytes past its base —
		// behind the PKRU check the sanctioned entry performs. No
		// WRPKRU bytes anywhere in the module.
		target := w.img.Packages[pkggraph.SuperPkg].Text.Base + 24
		const off = 128
		rel := int64(target) - int64(text.Base+off+5)
		enc := []byte{0xE8, byte(rel), byte(rel >> 8), byte(rel >> 16), byte(rel >> 24)}
		if err := w.space.WriteAt(text.Base+off, enc); err != nil {
			return nil, nil, 0, err
		}
		return p, []*mem.Section{text, data}, target, nil
	}
}

// RunGateBypass executes one gate-bypass scenario on one backend.
func RunGateBypass(kind core.BackendKind, variant GateBypassVariant) (Report, error) {
	rep := Report{
		Scenario:  "gate-bypass/" + variant.String(),
		Backend:   kind,
		Protected: kind != core.Baseline,
	}
	w, err := buildGateBypassWorld(kind)
	if err != nil {
		return rep, err
	}
	p, secs, target, err := PlantGateBypassModule(w, variant)
	if err != nil {
		return rep, err
	}
	if err := w.lb.Graph().AddIncremental(p); err != nil {
		return rep, err
	}
	if err := w.lb.InstallEnv(w.cpu, w.lb.Trusted()); err != nil {
		return rep, err
	}

	// The plugin host imports the prebuilt module into the enclosure's
	// view. LB_MPK's import-time gadget scan is its only chance: its
	// PKRU protects data accesses, not fetches, and no compiler gate
	// exists inside prebuilt text.
	if err := w.lb.AddDynamicPackage(w.cpu, p, secs, []*litterbox.Env{w.env}); err != nil {
		if !errors.Is(err, mpk.ErrGadgetFound) {
			return rep, err
		}
		rep.Blocked = true
		rep.FaultOp = "import-scan:" + firstLine(err.Error())
		return rep, nil
	}

	// Enter the enclosure and run the module's advertised functionality
	// — reading its own registry works everywhere.
	token := w.img.Enclosures[0].Token
	env, err := w.lb.Prolog(w.cpu, w.lb.Trusted(), 1, token)
	if err != nil {
		return rep, err
	}
	registry := w.img.Packages["plugins"].Data
	if err := w.lb.CheckRead(w.cpu, env, registry.Base, 8); err == nil {
		rep.LegitOK = true
	}

	// The attack: execute the gadget. For the straddle that means
	// fetching across the section boundary (the WRPKRU itself executes
	// fine on real MPK hardware — fetches are unchecked — so the model
	// grants the escalation and moves to the theft); for the mid-gate
	// call it means fetching gate text at the unsanctioned offset.
	if variant == MidGateCall {
		if err := w.lb.CheckExec(w.cpu, env, pkggraph.SuperPkg, target); err != nil {
			rep.Blocked = true
			rep.FaultOp = "exec:" + firstLine(err.Error())
			return rep, nil
		}
	}
	// Escalated (or baseline): read the vault secret the enclosure's
	// view never granted. VTX page tables and CHERI capabilities do not
	// consult PKRU, so the escalation bought nothing there.
	vault := w.img.Packages["vault"].Data
	if err := w.lb.CheckRead(w.cpu, env, vault.Base, 8); err != nil {
		rep.Blocked = true
		rep.FaultOp = "read:" + firstLine(err.Error())
		return rep, nil
	}
	rep.LootBytes = int(vault.Size)
	return rep, nil
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
