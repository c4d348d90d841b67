package litterbox

import (
	"fmt"
	"sort"
	"strings"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/ring"
	"github.com/litterbox-project/enclosure/internal/vtx"
)

// VTXBackend is LB_VTX (§5.3): the application runs in a single virtual
// machine; each execution environment is a page table enforcing its
// memory view; switches are guest system calls that validate the
// call-site against super's .verif specification and swap CR3; system
// calls are filtered by the guest kernel and, when authorised, forwarded
// to the host via a hypercall (VM EXIT); transfers toggle presence bits
// in the relevant page tables.
type VTXBackend struct {
	machine *vtx.Machine
	lb      *LitterBox

	// noShare disables content-addressed page-table sharing (the
	// benchmark's reference path: every environment builds its table
	// from scratch and transfers walk every table individually).
	noShare bool

	// sigs is the content-addressed registry: canonical memory-view key
	// → the table handle of the first environment built with that view.
	// A later environment with an identical view clones the handle
	// (O(1)) instead of rebuilding, sharing physical storage copy-on-
	// write. Keys are the full canonical view rendering — never a bare
	// hash — so colliding views can never alias each other's tables.
	// The registry stays valid across transfers (a table's content is a
	// function of the view and the current section owners, and shared
	// transfers update every sharer) but not across dynamic imports,
	// which mutate views in place; those clear it.
	sigs map[string]int
}

// NewVTX returns an LB_VTX backend over the simulated machine.
func NewVTX(machine *vtx.Machine) *VTXBackend {
	return &VTXBackend{machine: machine, sigs: make(map[string]int)}
}

// SetSharing toggles content-addressed page-table sharing (on by
// default; the unshared path is the reference that
// TestVTXSharingMatchesReferencePath and BenchmarkHostVTXInit compare
// against).
func (b *VTXBackend) SetSharing(on bool) {
	b.noShare = !on
	if !on {
		b.sigs = make(map[string]int)
	}
}

// viewKey canonically renders an environment's memory view. Two
// environments with equal keys have bit-identical page tables at every
// point in time, whatever transfers have happened since Init: table
// content is a function of (view, current section owners) only. The
// key deliberately ignores Cats and ConnectAllow — the syscall filter
// is not encoded in page tables, so environments differing only there
// can still share one.
func viewKey(env *Env) string {
	if env.Trusted {
		return "T" // the trusted view is unique by construction
	}
	names := make([]string, 0, len(env.View))
	for n, m := range env.View {
		if m != ModU {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		sb.WriteString(n)
		sb.WriteByte(0)
		sb.WriteByte(byte(env.View[n]))
		sb.WriteByte(0)
	}
	return sb.String()
}

// Name implements Backend.
func (b *VTXBackend) Name() string { return "vtx" }

// Machine exposes the VT-x machine (for tests).
func (b *VTXBackend) Machine() *vtx.Machine { return b.machine }

// Setup implements Backend: one page table per environment. The trusted
// table maps every package with user access except LitterBox's super,
// which lives only in the guest kernel address space.
func (b *VTXBackend) Setup(lb *LitterBox) error {
	b.lb = lb
	for id := EnvID(0); ; id++ {
		env, ok := lb.Env(id)
		if !ok {
			break
		}
		if err := b.CreateEnv(env); err != nil {
			return err
		}
	}
	return nil
}

// CreateEnv implements Backend: resolve the environment's memory view
// in the content-addressed registry and clone the matching table when
// one exists (O(1), copy-on-write); otherwise build the table from the
// view and register it.
func (b *VTXBackend) CreateEnv(env *Env) error {
	if b.noShare {
		table, err := b.buildTable(env)
		if err != nil {
			return err
		}
		env.Table = table
		return nil
	}
	key := viewKey(env)
	src, hit := b.sigs[key]
	if hit {
		table, err := b.machine.CloneTable(src)
		if err != nil {
			return fmt.Errorf("litterbox/vtx: env %s: %w", env.Name, err)
		}
		env.Table = table
		return nil
	}
	table, err := b.buildTable(env)
	if err != nil {
		return err
	}
	env.Table = table
	b.sigs[key] = table
	return nil
}

// buildTable constructs a fresh page table from the view.
func (b *VTXBackend) buildTable(env *Env) (int, error) {
	table := b.machine.CreateTable()
	for _, sec := range b.lb.Space.Sections() {
		rights := b.rightsIn(env, sec)
		if rights == mem.PermNone {
			continue
		}
		if err := b.machine.MapSection(table, sec, rights); err != nil {
			return 0, fmt.Errorf("litterbox/vtx: env %s: %w", env.Name, err)
		}
	}
	return table, nil
}

// invalidateSignatures clears the registry; dynamic imports mutate
// views in place, so registered keys no longer describe their tables.
func (b *VTXBackend) invalidateSignatures() {
	b.sigs = make(map[string]int)
}

// rightsIn computes the page rights env grants on a section.
func (b *VTXBackend) rightsIn(env *Env, sec *mem.Section) mem.Perm {
	mod := env.ModOf(sec.Pkg)
	if sec.Pkg == kernel.HeapOwner {
		// Pooled spans belong to no view, trusted included — under MPK the
		// pool shares super's key, which even the trusted PKRU denies, so
		// the page-table backends must match or the backends diverge.
		mod = ModU
	}
	rights := sectionRights(mod, sec.Kind)
	if rights == mem.PermNone {
		return mem.PermNone
	}
	// Page rights can never exceed the section's own defaults.
	return rights & sec.Perm
}

// Switch implements Backend: a guest system call validates the
// call-site and swaps CR3 (Table 1: two of these cost ~880ns on top of
// the 45ns closure call).
func (b *VTXBackend) Switch(cpu *hw.CPU, from, to *Env, gate Gate) error {
	return b.machine.GuestSwitch(cpu, to.Table, gate.Check)
}

// CheckAccess implements Backend via the active page table. A
// violation is an EPT fault: it triggers a VM EXIT (§5.3 — "a fault
// triggers a VM EXIT, prints a trace of the root-cause, and stops the
// program's execution") before the framework aborts.
func (b *VTXBackend) CheckAccess(cpu *hw.CPU, addr mem.Addr, size uint64, write bool) error {
	err := b.machine.CheckAccess(cpu, addr, size, write)
	if err != nil {
		cpu.VMResume(cpu.VMExit())
	}
	return err
}

// CheckExec implements Backend: instruction fetches are subject to the
// page table's execute bits, unlike MPK.
func (b *VTXBackend) CheckExec(cpu *hw.CPU, env *Env, pkg string, entry mem.Addr) error {
	err := b.machine.CheckExec(cpu, entry)
	if err != nil {
		cpu.VMResume(cpu.VMExit())
	}
	return err
}

// Transfer implements Backend: toggle the span's presence bits in every
// environment's page table according to the destination arena's
// visibility (Table 1: 158ns — cheaper than MPK's pkey_mprotect).
func (b *VTXBackend) Transfer(cpu *hw.CPU, sec *mem.Section, toPkg string) error {
	cpu.Clock.Advance(hw.CostEPTToggle)
	envs := b.lb.EnvsSnapshot()
	share := !b.noShare
	// Environments sharing a physical table need the presence bits
	// toggled only once: sharing implies identical views, and transfer
	// rights are a function of the view, so one shared update is exact
	// for every sharer. done tracks visited physical tables.
	var done map[int]struct{}
	if share {
		done = make(map[int]struct{}, len(envs))
	}
	for i, env := range envs {
		// Consult the fault injector once per transfer, positioned so an
		// interruption strikes after some tables were already updated —
		// the partial-failure case LitterBox's rollback must repair. The
		// consultation happens at the last environment whether or not its
		// physical table was already toggled, so injected traces are
		// identical with sharing on and off.
		if i == len(envs)-1 && transferInterrupted(cpu) {
			return ErrInjectedTransfer
		}
		if share {
			phys := b.machine.PhysOf(env.Table)
			if _, seen := done[phys]; seen {
				continue
			}
			done[phys] = struct{}{}
		}
		// Compute rights as if the section were owned by toPkg.
		mod := env.ModOf(toPkg)
		if toPkg == kernel.HeapOwner {
			mod = ModU // pooled spans are invisible everywhere (see rightsIn)
		}
		rights := sectionRights(mod, sec.Kind) & sec.Perm
		var err error
		switch {
		case rights == mem.PermNone && share:
			err = b.machine.UnmapSectionShared(env.Table, sec)
		case rights == mem.PermNone:
			err = b.machine.UnmapSection(env.Table, sec)
		case share:
			err = b.machine.MapSectionShared(env.Table, sec, rights)
		default:
			err = b.machine.MapSection(env.Table, sec, rights)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Syscall implements Backend: a guest system call whose handler filters
// against the environment; authorised calls VM EXIT to the host and
// resume with the results (Table 1: 4126ns for getuid).
func (b *VTXBackend) Syscall(cpu *hw.CPU, p *kernel.Proc, env *Env, nr kernel.Nr, args [6]uint64) (uint64, kernel.Errno) {
	prev := cpu.GuestSyscallEntry()
	defer cpu.GuestSyscallExit(prev)

	if !env.AllowsSyscall(nr) {
		return 0, kernel.ESECCOMP
	}
	if nr == kernel.NrConnect && !env.ConnectAllowed(uint32(args[1])) {
		return 0, kernel.ESECCOMP
	}
	type result struct {
		ret   uint64
		errno kernel.Errno
	}
	r := vtx.Hypercall(cpu, func() result {
		ret, errno := b.lb.Kernel.InvokeUnfiltered(p, cpu, nr, args)
		return result{ret, errno}
	})
	return r.ret, r.errno
}

// SyscallBatch implements Backend: one guest system call and ONE
// hypercall (VM EXIT / VM RESUME) for the whole batch — the guest
// kernel vets every entry against the environment's filter and the
// host drains the authorised prefix, which is where LB_VTX's 4126ns
// per-call overhead collapses to the per-entry ring cost.
func (b *VTXBackend) SyscallBatch(cpu *hw.CPU, p *kernel.Proc, env *Env, entries []ring.Entry, out []ring.Completion) int {
	prev := cpu.GuestSyscallEntry()
	defer cpu.GuestSyscallExit(prev)
	return vtx.Hypercall(cpu, func() int {
		b.lb.Kernel.RingTrap(cpu)
		for i, e := range entries {
			if !e.Runtime {
				if !env.AllowsSyscall(e.Nr) {
					return i
				}
				if e.Nr == kernel.NrConnect && !env.ConnectAllowed(uint32(e.Args[1])) {
					return i
				}
			}
			ret, errno := b.lb.Kernel.InvokeRing(p, cpu, false, e.Nr, e.Args)
			out[i] = ring.Completion{Tag: e.Tag, Ret: ret, Errno: errno}
		}
		return -1
	})
}
