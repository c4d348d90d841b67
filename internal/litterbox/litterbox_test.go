package litterbox_test

// External test package: exercises LitterBox through a hand-linked
// image, below the language frontend, plus integration paths the core
// tests do not reach (bad tokens, WRPKRU scans, key exhaustion).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure/internal/cheri"
	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/linker"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/mpk"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
	"github.com/litterbox-project/enclosure/internal/vtx"
)

type fixture struct {
	img   *linker.Image
	space *mem.AddressSpace
	clock *hw.Clock
	k     *kernel.Kernel
	proc  *kernel.Proc
	cpu   *hw.CPU
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	g := pkggraph.New()
	for _, p := range []*pkggraph.Package{
		{Name: "main", Imports: []string{"lib", "secrets"}, Vars: map[string]int{"key": 32}},
		{Name: "secrets", Vars: map[string]int{"data": 64}},
		{Name: "lib", Imports: []string{"util"}, Funcs: []string{"F"}},
		{Name: "util"},
	} {
		if err := g.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddReserved(&pkggraph.Package{Name: pkggraph.UserPkg}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddReserved(&pkggraph.Package{Name: pkggraph.SuperPkg}); err != nil {
		t.Fatal(err)
	}
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}
	space := mem.NewAddressSpace(0)
	img, err := linker.Link(g, []linker.DeclInput{
		{Name: "e1", Pkg: "main", Policy: "secrets:R; sys:proc"},
	}, space)
	if err != nil {
		t.Fatal(err)
	}
	clock := hw.NewClock()
	k := kernel.New(space, clock)
	return &fixture{
		img: img, space: space, clock: clock, k: k,
		proc: k.NewProc(1, 2, 3),
		cpu:  hw.NewCPU(clock),
	}
}

func (f *fixture) initWith(t testing.TB, backend litterbox.Backend, specs ...litterbox.EnclosureSpec) *litterbox.LitterBox {
	t.Helper()
	if specs == nil {
		specs = []litterbox.EnclosureSpec{{
			ID: 1, Name: "e1", Pkg: "main",
			Policy: litterbox.Policy{
				Mods: map[string]litterbox.AccessMod{"secrets": litterbox.ModR},
				Cats: kernel.CatProc,
			},
		}}
	}
	lb, err := litterbox.Init(litterbox.Config{
		Image: f.img, Specs: specs, Clock: f.clock,
		Kernel: f.k, Proc: f.proc, Backend: backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	return lb
}

func backends(f *fixture) map[string]litterbox.Backend {
	return map[string]litterbox.Backend{
		"baseline": litterbox.NewBaseline(),
		"mpk":      litterbox.NewMPK(mpk.NewUnit(f.space)),
		"vtx":      litterbox.NewVTX(vtx.NewMachine(f.space, f.clock)),
		"cheri":    litterbox.NewCHERI(cheri.NewUnit(f.clock)),
	}
}

func TestInitComputesView(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewBaseline())
	env, err := lb.EnvForEnclosure(1)
	if err != nil {
		t.Fatal(err)
	}
	// Declared in main: view = main + natural deps + user + policy mods.
	for pkg, want := range map[string]litterbox.AccessMod{
		"main":           litterbox.ModRWX,
		"lib":            litterbox.ModRWX,
		"util":           litterbox.ModRWX,
		"secrets":        litterbox.ModR, // policy override of a natural dep
		pkggraph.UserPkg: litterbox.ModRWX,
	} {
		if got := env.ModOf(pkg); got != want {
			t.Errorf("ModOf(%s) = %v, want %v", pkg, got, want)
		}
	}
	if env.ModOf(pkggraph.SuperPkg) != litterbox.ModU {
		t.Error("super mapped in an enclosure view")
	}
	if !env.AllowsSyscall(kernel.NrGetuid) || env.AllowsSyscall(kernel.NrOpen) {
		t.Error("syscall filter wrong")
	}
}

func TestInitRejectsBadPolicies(t *testing.T) {
	f := newFixture(t)
	_, err := litterbox.Init(litterbox.Config{
		Image: f.img, Clock: f.clock, Kernel: f.k, Proc: f.proc,
		Backend: litterbox.NewBaseline(),
		Specs: []litterbox.EnclosureSpec{{
			ID: 1, Name: "e1", Pkg: "main",
			Policy: litterbox.Policy{Mods: map[string]litterbox.AccessMod{"ghost": litterbox.ModR}},
		}},
	})
	if !errors.Is(err, litterbox.ErrUnknownPkg) {
		t.Fatalf("unknown package: %v", err)
	}

	_, err = litterbox.Init(litterbox.Config{
		Image: f.img, Clock: f.clock, Kernel: f.k, Proc: f.proc,
		Backend: litterbox.NewBaseline(),
		Specs: []litterbox.EnclosureSpec{{
			ID: 1, Name: "e1", Pkg: "main",
			Policy: litterbox.Policy{Mods: map[string]litterbox.AccessMod{pkggraph.SuperPkg: litterbox.ModR}},
		}},
	})
	if !errors.Is(err, litterbox.ErrSuperGrant) {
		t.Fatalf("super grant: %v", err)
	}
}

func TestClustering(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewBaseline())
	metas := lb.MetaPackages()
	// lib and util share a signature (RWX in e1, RWX trusted); main has
	// its own (declaring pkg also RWX — so it clusters with lib/util);
	// secrets (R), user (RWX everywhere — same as lib!), super (never).
	group := func(pkg string) int { return lb.MetaOf(pkg) }
	if group("lib") != group("util") {
		t.Error("lib and util should cluster")
	}
	if group("secrets") == group("lib") {
		t.Error("secrets must not cluster with RWX packages")
	}
	if group(pkggraph.SuperPkg) == group("lib") {
		t.Error("super must be alone")
	}
	if lb.MetaOf("ghost") != -1 {
		t.Error("unknown package has a meta-package")
	}
	total := 0
	for _, g := range metas {
		total += len(g)
	}
	if total != f.img.Graph.Len() {
		t.Errorf("clustering covers %d of %d packages", total, f.img.Graph.Len())
	}
}

func TestPrologBadTokenFaults(t *testing.T) {
	f := newFixture(t)
	for name, backend := range backends(newFixture(t)) {
		if name == "baseline" {
			continue // vanilla closures: no switches, no verification
		}
		f = newFixture(t)
		lb := f.initWith(t, reuse(backend, f))
		good := f.img.Enclosures[0].Token
		if _, err := lb.Prolog(f.cpu, lb.Trusted(), 1, good^0xBAD); err == nil {
			t.Errorf("%s: forged call-site accepted", name)
		}
		if _, dead := lb.Aborted(); !dead {
			t.Errorf("%s: bad token did not abort", name)
		}
	}
}

// reuse rebinds a backend constructor to a fresh fixture's hardware.
func reuse(b litterbox.Backend, f *fixture) litterbox.Backend {
	switch b.(type) {
	case *litterbox.MPKBackend:
		return litterbox.NewMPK(mpk.NewUnit(f.space))
	case *litterbox.VTXBackend:
		return litterbox.NewVTX(vtx.NewMachine(f.space, f.clock))
	case *litterbox.CHERIBackend:
		return litterbox.NewCHERI(cheri.NewUnit(f.clock))
	default:
		return litterbox.NewBaseline()
	}
}

func TestPrologEpilogRoundTrip(t *testing.T) {
	for _, mk := range []func(*fixture) litterbox.Backend{
		func(f *fixture) litterbox.Backend { return litterbox.NewMPK(mpk.NewUnit(f.space)) },
		func(f *fixture) litterbox.Backend { return litterbox.NewVTX(vtx.NewMachine(f.space, f.clock)) },
	} {
		f := newFixture(t)
		lb := f.initWith(t, mk(f))
		if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
			t.Fatal(err)
		}
		token := f.img.Enclosures[0].Token
		env, err := lb.Prolog(f.cpu, lb.Trusted(), 1, token)
		if err != nil {
			t.Fatal(err)
		}
		if env.Trusted {
			t.Fatal("Prolog landed in trusted")
		}
		// secrets is read-only in this environment.
		sec := f.img.Packages["secrets"].Data
		if err := lb.CheckRead(f.cpu, env, sec.Base, 8); err != nil {
			t.Fatalf("read secrets: %v", err)
		}
		if err := lb.CheckWrite(f.cpu, env, sec.Base, 8); err == nil {
			t.Fatal("write to read-only secrets allowed")
		}
		if _, dead := lb.Aborted(); !dead {
			t.Fatal("fault did not abort")
		}
	}
}

func TestEpilogRestoresCaller(t *testing.T) {
	f := newFixture(t)
	unit := mpk.NewUnit(f.space)
	lb := f.initWith(t, litterbox.NewMPK(unit))
	if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
		t.Fatal(err)
	}
	trustedPKRU := f.cpu.PeekPKRU()
	token := f.img.Enclosures[0].Token
	env, err := lb.Prolog(f.cpu, lb.Trusted(), 1, token)
	if err != nil {
		t.Fatal(err)
	}
	if f.cpu.PeekPKRU() == trustedPKRU {
		t.Fatal("Prolog did not change PKRU")
	}
	if err := lb.Epilog(f.cpu, env, lb.Trusted(), 1, token); err != nil {
		t.Fatal(err)
	}
	if f.cpu.PeekPKRU() != trustedPKRU {
		t.Fatal("Epilog did not restore the caller's PKRU")
	}
}

func TestFilterSyscall(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewMPK(mpk.NewUnit(f.space)))
	if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
		t.Fatal(err)
	}
	env, err := lb.Prolog(f.cpu, lb.Trusted(), 1, f.img.Enclosures[0].Token)
	if err != nil {
		t.Fatal(err)
	}
	// proc category allowed.
	if _, errno, err := lb.SyscallGateway(f.cpu, env, litterbox.SyscallReq{Nr: kernel.NrGetuid}); err != nil || errno != kernel.OK {
		t.Fatalf("getuid: %v %v", errno, err)
	}
	// file category rejected -> fault.
	if _, _, err := lb.SyscallGateway(f.cpu, env, litterbox.SyscallReq{Nr: kernel.NrOpen}); err == nil {
		t.Fatal("open allowed under sys:proc")
	}
	if _, dead := lb.Aborted(); !dead {
		t.Fatal("filtered syscall did not abort")
	}
}

func TestTransferNonHeapRejected(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewBaseline())
	text := f.img.Packages["lib"].Text
	if err := lb.Transfer(f.cpu, text, "main"); err == nil {
		t.Fatal("transferred a text section")
	}
}

func TestTransferUpdatesBackends(t *testing.T) {
	f := newFixture(t)
	machine := vtx.NewMachine(f.space, f.clock)
	lb := f.initWith(t, litterbox.NewVTX(machine))
	env, _ := lb.EnvForEnclosure(1)

	span, err := f.space.Map("span-1", kernel.HeapOwner, mem.KindHeap, 4*mem.PageSize, mem.PermR|mem.PermW)
	if err != nil {
		t.Fatal(err)
	}
	// Pool spans are invisible to the enclosure.
	if err := lb.Transfer(f.cpu, span, kernel.HeapOwner); err != nil {
		t.Fatal(err)
	}
	if machine.Mapped(env.Table, span.Base) != mem.PermNone {
		t.Fatal("pool span visible in enclosure table")
	}
	// Into lib's arena: RW in the enclosure (lib is RWX there).
	if err := lb.Transfer(f.cpu, span, "lib"); err != nil {
		t.Fatal(err)
	}
	if machine.Mapped(env.Table, span.Base) != mem.PermR|mem.PermW {
		t.Fatal("lib span not mapped RW in enclosure table")
	}
	// Into secrets' arena: read-only in the enclosure.
	if err := lb.Transfer(f.cpu, span, "secrets"); err != nil {
		t.Fatal(err)
	}
	if machine.Mapped(env.Table, span.Base) != mem.PermR {
		t.Fatal("secrets span not mapped R in enclosure table")
	}
	if span.Pkg != "secrets" {
		t.Fatal("ownership not updated")
	}
	if f.cpu.Counters.Transfers != 3 {
		t.Fatalf("transfer count %d", f.cpu.Counters.Transfers)
	}
}

func TestMPKScanRejectsPlantedWRPKRU(t *testing.T) {
	f := newFixture(t)
	// Plant WRPKRU in lib's text before Init.
	text := f.img.Packages["lib"].Text
	if err := f.space.WriteAt(text.Base+100, mpk.WRPKRUOpcode); err != nil {
		t.Fatal(err)
	}
	_, err := litterbox.Init(litterbox.Config{
		Image: f.img, Clock: f.clock, Kernel: f.k, Proc: f.proc,
		Backend: litterbox.NewMPK(mpk.NewUnit(f.space)),
		Specs:   nil,
	})
	if !errors.Is(err, mpk.ErrWRPKRUFound) {
		t.Fatalf("planted WRPKRU: %v", err)
	}
}

func TestRuntimeSyscallSwitchesToTrusted(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewMPK(mpk.NewUnit(f.space)))
	if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
		t.Fatal(err)
	}
	env, err := lb.Prolog(f.cpu, lb.Trusted(), 1, f.img.Enclosures[0].Token)
	if err != nil {
		t.Fatal(err)
	}
	// open is NOT in the enclosure filter, but the runtime may issue it
	// from the trusted context; PKRU must be restored afterwards.
	before := f.cpu.PeekPKRU()
	_, errno, err := lb.SyscallGateway(f.cpu, env, litterbox.SyscallReq{Nr: kernel.NrGetpid, Runtime: true})
	if err != nil || errno != kernel.OK {
		t.Fatalf("runtime getpid: %v %v", errno, err)
	}
	if f.cpu.PeekPKRU() != before {
		t.Fatal("RuntimeSyscall did not restore the environment")
	}
}

func TestEnvsSnapshotAndAccessors(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewBaseline())
	envs := lb.EnvsSnapshot()
	if len(envs) != 2 || !envs[0].Trusted {
		t.Fatalf("snapshot %v", envs)
	}
	if _, err := lb.EnvForEnclosure(99); !errors.Is(err, litterbox.ErrUnknownEncl) {
		t.Fatalf("unknown enclosure: %v", err)
	}
	if lb.Graph() != f.img.Graph {
		t.Fatal("Graph accessor")
	}
	if lb.Backend().Name() != "baseline" {
		t.Fatal("Backend accessor")
	}
}

func TestFaultMessage(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewBaseline())
	env, _ := lb.EnvForEnclosure(1)
	fault := &litterbox.Fault{Env: env, Op: "read", Note: "secrets"}
	if !strings.Contains(fault.Error(), "read") || !strings.Contains(fault.Error(), "secrets") {
		t.Fatalf("fault message %q", fault.Error())
	}
}

// TestInitRejectsCorruptedPkgsSection: failure injection on the image
// metadata. Each case tampers with one field of the .pkgs section, or
// with its framing, and Init must fail: the decoder rejects a wrong
// record count, length prefix or trailing byte, and Init's cross-check
// rejects a package name the graph does not know and a section whose
// base, size or perm disagrees with the address space. LOC, imports and
// symbol tables are decoded but not cross-checked against the graph, so
// tampering with them alone goes unnoticed.
func TestInitRejectsCorruptedPkgsSection(t *testing.T) {
	// Field offsets in the section, found by their encoded bytes: the
	// first record's name, and its first section's base, which follows
	// the section's u32-length name and u8 kind; size and perm follow.
	le32 := func(n int) []byte { return binary.LittleEndian.AppendUint32(nil, uint32(n)) }
	locate := func(t *testing.T, f *fixture, b []byte) (name, base int) {
		descs, err := f.img.ReadPkgs()
		if err != nil {
			t.Fatal(err)
		}
		d, sd := descs[0], descs[0].Sections[0]
		name = bytes.Index(b, append(le32(len(d.Name)), d.Name...)) + 4
		base = bytes.Index(b, append(append(le32(len(sd.Name)), sd.Name...), sd.Kind)) + 4 + len(sd.Name) + 1
		if name < 4 || base < 4+len(sd.Name)+1 {
			t.Fatalf("fields of %s not found in .pkgs", d.Name)
		}
		return name, base
	}
	addLE64 := func(b []byte, d uint64) {
		binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+d)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(b []byte, name, base int)
	}{
		{"record count", func(b []byte, _, _ int) { b[8]++ }},
		{"package name", func(b []byte, name, _ int) { b[name] ^= 0xFF }},
		{"section base", func(b []byte, _, base int) { addLE64(b[base:], mem.PageSize) }},
		{"section size", func(b []byte, _, base int) { addLE64(b[base+8:], mem.PageSize) }},
		{"section perm", func(b []byte, _, base int) { b[base+16] ^= byte(mem.PermW) }},
		{"length prefix", func(b []byte, _, _ int) { addLE64(b, ^uint64(0)) }},
		{"trailing byte", func(b []byte, _, _ int) {
			n := binary.LittleEndian.Uint64(b)
			b[8+n] = 0x5A
			addLE64(b, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			sec := f.img.PkgsSec
			b := make([]byte, sec.Size)
			if err := f.space.ReadAt(sec.Base, b); err != nil {
				t.Fatal(err)
			}
			name, base := locate(t, f, b)
			tc.corrupt(b, name, base)
			if err := f.space.WriteAt(sec.Base, b); err != nil {
				t.Fatal(err)
			}
			_, err := litterbox.Init(litterbox.Config{
				Image: f.img, Clock: f.clock, Kernel: f.k, Proc: f.proc,
				Backend: litterbox.NewBaseline(),
			})
			if err == nil {
				t.Fatal("corrupted .pkgs accepted by Init")
			}
		})
	}
}
