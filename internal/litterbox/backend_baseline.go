package litterbox

import (
	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/ring"
)

// BaselineBackend is the paper's evaluation baseline: unmodified
// runtime behaviour where "enclosures are replaced by vanilla closures"
// (§6). Switches are free, no memory view or system-call filter is
// enforced, and transfers only update ownership bookkeeping.
type BaselineBackend struct {
	lb *LitterBox
}

// NewBaseline returns the no-enforcement backend.
func NewBaseline() *BaselineBackend { return &BaselineBackend{} }

// Name implements Backend.
func (b *BaselineBackend) Name() string { return "baseline" }

// Setup implements Backend.
func (b *BaselineBackend) Setup(lb *LitterBox) error {
	b.lb = lb
	return nil
}

// CreateEnv implements Backend.
func (b *BaselineBackend) CreateEnv(*Env) error { return nil }

// Switch implements Backend: a vanilla closure call switches nothing.
func (b *BaselineBackend) Switch(cpu *hw.CPU, from, to *Env, gate Gate) error {
	return nil
}

// CheckAccess implements Backend: no enforcement.
func (b *BaselineBackend) CheckAccess(cpu *hw.CPU, addr mem.Addr, size uint64, write bool) error {
	return nil
}

// CheckExec implements Backend: no enforcement.
func (b *BaselineBackend) CheckExec(cpu *hw.CPU, env *Env, pkg string, entry mem.Addr) error {
	return nil
}

// Transfer implements Backend: ownership changes cost nothing without
// hardware page state to update (Table 1's baseline transfer row is 0).
func (b *BaselineBackend) Transfer(cpu *hw.CPU, sec *mem.Section, toPkg string) error {
	if transferInterrupted(cpu) {
		return ErrInjectedTransfer
	}
	return nil
}

// Syscall implements Backend: native, unfiltered system calls, by
// construction rather than by the accident of no filter being
// installed — this is the unfiltered cost floor the verdict-table
// fast path is measured against (Table 1's baseline "syscall" row).
func (b *BaselineBackend) Syscall(cpu *hw.CPU, p *kernel.Proc, env *Env, nr kernel.Nr, args [6]uint64) (uint64, kernel.Errno) {
	return b.lb.Kernel.InvokeUnfiltered(p, cpu, nr, args)
}

// SyscallBatch implements Backend: one trap for the whole batch, then
// native unfiltered dispatch per entry. The baseline never denies.
func (b *BaselineBackend) SyscallBatch(cpu *hw.CPU, p *kernel.Proc, env *Env, entries []ring.Entry, out []ring.Completion) int {
	b.lb.Kernel.RingTrap(cpu)
	for i, e := range entries {
		ret, errno := b.lb.Kernel.InvokeRing(p, cpu, false, e.Nr, e.Args)
		out[i] = ring.Completion{Tag: e.Tag, Ret: ret, Errno: errno}
	}
	return -1
}
