package litterbox

import (
	"fmt"

	"github.com/litterbox-project/enclosure/internal/cheri"
	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/ring"
)

// CHERIBackend is the capability backend the paper projects (§7, §8):
// one capability table per execution environment, derived from the
// memory view at section granularity but refinable to byte granularity
// with GrantCapability. Switches install the table (cheap, MPK-like);
// transfers re-derive the span's capabilities; system calls are vetted
// by an in-process monitor — no VM exits, no kernel BPF.
//
// Costs are projections (see internal/hw): the paper reports no CHERI
// numbers, only that an ideal mechanism would combine MPK-like
// overheads with a protected monitor.
type CHERIBackend struct {
	unit *cheri.Unit
	lb   *LitterBox
}

// NewCHERI returns the capability backend over the simulated unit.
func NewCHERI(unit *cheri.Unit) *CHERIBackend {
	return &CHERIBackend{unit: unit}
}

// Name implements Backend.
func (b *CHERIBackend) Name() string { return "cheri" }

// Setup implements Backend: one capability table per environment.
func (b *CHERIBackend) Setup(lb *LitterBox) error {
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

// CreateEnv implements Backend: derive the environment's capabilities
// from its memory view, one per visible section.
func (b *CHERIBackend) CreateEnv(env *Env) error {
	table := b.unit.CreateTable()
	env.Table = table
	for _, sec := range b.lb.Space.Sections() {
		rights := b.rightsIn(env, sec)
		if rights == mem.PermNone {
			continue
		}
		if err := b.unit.Grant(table, cheri.Cap{Base: sec.Base, Len: sec.Size, Perm: rights}); err != nil {
			return fmt.Errorf("litterbox/cheri: env %s: %w", env.Name, err)
		}
	}
	return nil
}

func (b *CHERIBackend) rightsIn(env *Env, sec *mem.Section) mem.Perm {
	mod := env.ModOf(sec.Pkg)
	if sec.Pkg == kernel.HeapOwner {
		// Pooled spans are invisible everywhere, trusted included — this
		// mirrors MPK, where the pool shares super's key that even the
		// trusted PKRU denies.
		mod = ModU
	}
	return sectionRights(mod, sec.Kind) & sec.Perm
}

// GrantCapability installs a byte-granular capability in an
// environment's table — the refinement page-based backends cannot
// express (e.g. a writable 16-byte object header inside an otherwise
// read-only module).
func (b *CHERIBackend) GrantCapability(env *Env, base mem.Addr, size uint64, perm mem.Perm) error {
	b.lb.Clock.Advance(hw.CostCapUpdate)
	return b.unit.Grant(env.Table, cheri.Cap{Base: base, Len: size, Perm: perm})
}

// Switch implements Backend: verify the call-site, then install the
// target's capability table.
func (b *CHERIBackend) Switch(cpu *hw.CPU, from, to *Env, gate Gate) error {
	if err := gate.Check(); err != nil {
		return err
	}
	return b.unit.Switch(cpu, to.Table)
}

// CheckAccess implements Backend via capability lookup.
func (b *CHERIBackend) CheckAccess(cpu *hw.CPU, addr mem.Addr, size uint64, write bool) error {
	return b.unit.CheckAccess(cpu, addr, size, write)
}

// CheckExec implements Backend: fetches need an executable capability.
func (b *CHERIBackend) CheckExec(cpu *hw.CPU, env *Env, pkg string, entry mem.Addr) error {
	return b.unit.CheckExec(cpu, entry)
}

// Transfer implements Backend: revoke the span's capabilities
// everywhere, then re-derive them under the new owner.
func (b *CHERIBackend) Transfer(cpu *hw.CPU, sec *mem.Section, toPkg string) error {
	cpu.Clock.Advance(hw.CostCapUpdate)
	envs := b.lb.EnvsSnapshot()
	for i, env := range envs {
		// One injector consultation per transfer, mid-loop (see the VTX
		// backend): an interruption leaves earlier tables updated.
		if i == len(envs)-1 && transferInterrupted(cpu) {
			return ErrInjectedTransfer
		}
		if err := b.unit.RevokeRange(env.Table, sec.Base, sec.Size); err != nil {
			return err
		}
		mod := env.ModOf(toPkg)
		if toPkg == kernel.HeapOwner {
			mod = ModU // pooled spans are invisible everywhere (see rightsIn)
		}
		rights := sectionRights(mod, sec.Kind) & sec.Perm
		if rights == mem.PermNone {
			continue
		}
		if err := b.unit.Grant(env.Table, cheri.Cap{Base: sec.Base, Len: sec.Size, Perm: rights}); err != nil {
			return err
		}
	}
	return nil
}

// Syscall implements Backend: an in-process protected monitor checks
// the environment's filter, then the call proceeds natively.
func (b *CHERIBackend) Syscall(cpu *hw.CPU, p *kernel.Proc, env *Env, nr kernel.Nr, args [6]uint64) (uint64, kernel.Errno) {
	cpu.Clock.Advance(hw.CostCapSyscallCheck)
	if !env.AllowsSyscall(nr) {
		return 0, kernel.ESECCOMP
	}
	if nr == kernel.NrConnect && !env.ConnectAllowed(uint32(args[1])) {
		return 0, kernel.ESECCOMP
	}
	return b.lb.Kernel.InvokeUnfiltered(p, cpu, nr, args)
}

// SyscallBatch implements Backend: the monitor walks the batch once,
// vetting each entry against the environment's filter before its
// dispatch — one trap for the batch, one capability check per entry.
func (b *CHERIBackend) SyscallBatch(cpu *hw.CPU, p *kernel.Proc, env *Env, entries []ring.Entry, out []ring.Completion) int {
	b.lb.Kernel.RingTrap(cpu)
	for i, e := range entries {
		if !e.Runtime {
			cpu.Clock.Advance(hw.CostCapSyscallCheck)
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
}
