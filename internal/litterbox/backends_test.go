package litterbox_test

import (
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

// TestBackendMatrix drives the full LitterBox API surface on every
// backend directly (the core tests exercise it from above): Prolog,
// reads/writes under the view, exec rights, syscall filtering,
// transfers, Epilog.
func TestBackendMatrix(t *testing.T) {
	for _, name := range []string{"baseline", "mpk", "vtx", "cheri"} {
		name := name
		t.Run(name, func(t *testing.T) {
			f := newFixture(t)
			var backend litterbox.Backend
			switch name {
			case "mpk":
				backend = litterbox.NewMPK(mpk.NewUnit(f.space))
			case "vtx":
				backend = litterbox.NewVTX(vtx.NewMachine(f.space, f.clock))
			case "cheri":
				backend = litterbox.NewCHERI(cheri.NewUnit(f.clock))
			default:
				backend = litterbox.NewBaseline()
			}
			lb := f.initWith(t, backend)
			if lb.Backend().Name() != name {
				t.Fatalf("backend name %q", lb.Backend().Name())
			}
			enforcing := name != "baseline"

			if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
				t.Fatal(err)
			}
			token := f.img.Enclosures[0].Token
			env, err := lb.Prolog(f.cpu, lb.Trusted(), 1, token)
			if err != nil {
				t.Fatal(err)
			}

			// In-view data access: lib's data is RWX in e1.
			lib := f.img.Packages["lib"].Data
			if err := lb.CheckWrite(f.cpu, env, lib.Base, 8); err != nil {
				t.Fatalf("write lib data: %v", err)
			}
			// Exec rights: lib's functions are invocable.
			if err := lb.CheckExec(f.cpu, env, "lib", f.img.Packages["lib"].Funcs["F"].Addr); err != nil {
				t.Fatalf("exec lib.F: %v", err)
			}
			// secrets is read-only: write must fault on enforcing backends.
			sec := f.img.Packages["secrets"].Data
			werr := lb.CheckWrite(f.cpu, env, sec.Base, 8)
			if enforcing && werr == nil {
				t.Fatal("write to read-only secrets allowed")
			}
			if !enforcing && werr != nil {
				t.Fatalf("baseline enforced: %v", werr)
			}
			if enforcing {
				return // the fault aborted the program; done
			}

			// Baseline continues: filtered syscalls pass, transfers work.
			if _, errno, err := lb.SyscallGateway(f.cpu, env, litterbox.SyscallReq{Nr: kernel.NrOpen}); err != nil || errno == kernel.ESECCOMP {
				t.Fatalf("baseline filtered open: %v %v", errno, err)
			}
			span, err := f.space.Map("span-x", kernel.HeapOwner, mem.KindHeap, mem.PageSize, mem.PermR|mem.PermW)
			if err != nil {
				t.Fatal(err)
			}
			if err := lb.Transfer(f.cpu, span, "lib"); err != nil {
				t.Fatal(err)
			}
			if err := lb.Epilog(f.cpu, env, lb.Trusted(), 1, token); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBackendTransfersVisibility: after a Transfer, the span follows
// the destination arena's visibility on every enforcing backend.
func TestBackendTransfersVisibility(t *testing.T) {
	mk := map[string]func(f *fixture) litterbox.Backend{
		"mpk":   func(f *fixture) litterbox.Backend { return litterbox.NewMPK(mpk.NewUnit(f.space)) },
		"vtx":   func(f *fixture) litterbox.Backend { return litterbox.NewVTX(vtx.NewMachine(f.space, f.clock)) },
		"cheri": func(f *fixture) litterbox.Backend { return litterbox.NewCHERI(cheri.NewUnit(f.clock)) },
	}
	for name, make := range mk {
		name := name
		make := make
		t.Run(name, func(t *testing.T) {
			f := newFixture(t)
			lb := f.initWith(t, make(f))
			if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
				t.Fatal(err)
			}
			span, err := f.space.Map("span-y", kernel.HeapOwner, mem.KindHeap, mem.PageSize, mem.PermR|mem.PermW)
			if err != nil {
				t.Fatal(err)
			}
			if err := lb.Transfer(f.cpu, span, "secrets"); err != nil {
				t.Fatal(err)
			}
			env, err := lb.Prolog(f.cpu, lb.Trusted(), 1, f.img.Enclosures[0].Token)
			if err != nil {
				t.Fatal(err)
			}
			// secrets' arena is read-only in e1: reads pass, writes fault.
			if err := lb.CheckRead(f.cpu, env, span.Base, 8); err != nil {
				t.Fatalf("read secrets span: %v", err)
			}
			if err := lb.CheckWrite(f.cpu, env, span.Base, 8); err == nil {
				t.Fatal("write to read-only arena span allowed")
			}
		})
	}
}

// TestNestedTargetEnvIntersection at the LitterBox level: entering a
// second enclosure from inside the first lands in the cached
// intersection environment.
func TestNestedTargetEnvIntersection(t *testing.T) {
	f := newFixture(t)
	specs := []litterbox.EnclosureSpec{
		{ID: 1, Name: "outer", Pkg: "main", Policy: litterbox.Policy{Cats: kernel.CatFile | kernel.CatIO}},
		{ID: 2, Name: "inner", Pkg: "lib", Policy: litterbox.Policy{Cats: kernel.CatNet | kernel.CatIO}},
	}
	// Re-link with both enclosures so tokens exist.
	f2 := newFixtureWithDecls(t, []string{"outer:main", "inner:lib"})
	lb := f2.initWith(t, litterbox.NewMPK(mpk.NewUnit(f2.space)), specs...)
	if err := lb.InstallEnv(f2.cpu, lb.Trusted()); err != nil {
		t.Fatal(err)
	}
	outerTok := f2.img.Enclosures[0].Token
	innerTok := f2.img.Enclosures[1].Token

	outer, err := lb.Prolog(f2.cpu, lb.Trusted(), 1, outerTok)
	if err != nil {
		t.Fatal(err)
	}
	nested, err := lb.Prolog(f2.cpu, outer, 2, innerTok)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nested.Name, "&") {
		t.Fatalf("nested env %q is not an intersection", nested.Name)
	}
	if nested.Cats != kernel.CatIO {
		t.Fatalf("nested cats %v, want io only", nested.Cats)
	}
	// A second nested entry reuses the cached intersection.
	if err := lb.Epilog(f2.cpu, nested, outer, 2, innerTok); err != nil {
		t.Fatal(err)
	}
	nested2, err := lb.Prolog(f2.cpu, outer, 2, innerTok)
	if err != nil {
		t.Fatal(err)
	}
	if nested2 != nested {
		t.Fatal("intersection environment not cached")
	}
	_ = f
}

// newFixtureWithDecls builds the standard fixture graph but links it
// with custom enclosure declarations ("name:pkg" entries).
func newFixtureWithDecls(t *testing.T, decls []string) *fixture {
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
	var din []linker.DeclInput
	for _, d := range decls {
		name, pkg, _ := strings.Cut(d, ":")
		din = append(din, linker.DeclInput{Name: name, Pkg: pkg, Policy: "test"})
	}
	space := mem.NewAddressSpace(0)
	img, err := linker.Link(g, din, space)
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

// MPK DescribeKeys / KeyOf smoke coverage.
func TestMPKKeyIntrospection(t *testing.T) {
	f := newFixture(t)
	b := litterbox.NewMPK(mpk.NewUnit(f.space))
	_ = f.initWith(t, b)
	if b.KeyOf("lib") < 0 {
		t.Error("lib has no key")
	}
	if b.KeyOf("ghost-package") != -1 {
		t.Error("ghost package has a key")
	}
	desc := b.DescribeKeys()
	if !strings.Contains(desc, "litterbox/super") {
		t.Errorf("DescribeKeys = %q", desc)
	}
	if b.Unit() == nil || b.Virtualized() {
		t.Error("small program should not virtualise")
	}
}

// TestVTXFaultTriggersVMExit: §5.3 — an EPT violation exits the VM
// before the program stops.
func TestVTXFaultTriggersVMExit(t *testing.T) {
	f := newFixture(t)
	lb := f.initWith(t, litterbox.NewVTX(vtx.NewMachine(f.space, f.clock)))
	if err := lb.InstallEnv(f.cpu, lb.Trusted()); err != nil {
		t.Fatal(err)
	}
	env, err := lb.Prolog(f.cpu, lb.Trusted(), 1, f.img.Enclosures[0].Token)
	if err != nil {
		t.Fatal(err)
	}
	before := f.cpu.Counters.VMExits
	sec := f.img.Packages["secrets"].Data
	if err := lb.CheckWrite(f.cpu, env, sec.Base, 1); err == nil {
		t.Fatal("violation not detected")
	}
	if f.cpu.Counters.VMExits != before+1 {
		t.Fatalf("fault did not VM EXIT: %d -> %d", before, f.cpu.Counters.VMExits)
	}
}
