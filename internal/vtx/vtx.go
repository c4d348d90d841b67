// Package vtx simulates the Intel VT-x machinery LB_VTX builds on
// (§5.3): the application runs inside a virtual machine; each enclosure
// execution environment is a separate page table; a switch is a system
// call into the guest operating system (LitterBox's super package mapped
// in non-root kernel mode) that validates the call-site and swaps CR3;
// permitted system calls are forwarded to the host via a hypercall
// (VM EXIT / VM RESUME); transfers toggle presence bits in the relevant
// page tables.
package vtx

import (
	"errors"
	"fmt"
	"sort"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/mem"
)

// PhysAddrBits is VT-x's 40-bit guest-physical limit; the paper keeps
// GPA == GVA == HVA whenever the program fits below it.
const PhysAddrBits = 40

// Errors reported by the machine.
var (
	ErrNoTable    = errors.New("vtx: no such page table")
	ErrTooHigh    = errors.New("vtx: address beyond 40-bit guest-physical space")
	ErrNotInGuest = errors.New("vtx: operation requires guest kernel mode")
)

// AccessError describes an EPT-style protection fault: the active page
// table does not map the page with the required rights. It surfaces as a
// VM EXIT that prints a root-cause trace and stops the program.
type AccessError struct {
	Addr  mem.Addr
	Write bool
	Exec  bool
	Table int
}

// Error implements the error interface.
func (e *AccessError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	if e.Exec {
		op = "exec"
	}
	return fmt.Sprintf("vtx: EPT violation: %s %s in page table %d", op, e.Addr, e.Table)
}

// physTable is the physical storage of one page table: page number →
// rights. Several table handles may reference one physical table when
// their environments' views are identical (content-addressed sharing);
// refs counts the handles.
type physTable struct {
	id    int
	pages map[uint64]mem.Perm
	refs  int
}

// Machine is the per-program virtual machine: a set of page-table
// handles, one per execution environment, each resolving to shared
// physical storage; plus the trusted table with user access to
// everything except LitterBox's super package. The handle→physical
// indirection is what lets identical views share one table copy-on-
// write without any environment's published Table id ever changing.
type Machine struct {
	space *mem.AddressSpace
	clock *hw.Clock

	handles map[int]*physTable
	next    int
	nphys   int
	clones  int64
	splits  int64
	muts    int64 // bumped on every table mutation (see clone.go)
}

// NewMachine returns a machine with no page tables. The caller (LB_VTX)
// creates table 0 as the trusted one.
func NewMachine(space *mem.AddressSpace, clock *hw.Clock) *Machine {
	return &Machine{space: space, clock: clock, handles: make(map[int]*physTable)}
}

// CreateTable allocates an empty page table and returns its handle.
func (m *Machine) CreateTable() int {
	id := m.next
	m.next++
	m.handles[id] = m.newPhys()
	m.muts++
	return id
}

func (m *Machine) newPhys() *physTable {
	pt := &physTable{id: m.nphys, pages: make(map[uint64]mem.Perm), refs: 1}
	m.nphys++
	return pt
}

// CloneTable allocates a new handle sharing src's physical table. The
// clone costs O(1) — no pages are copied until a copy-on-write split.
func (m *Machine) CloneTable(src int) (int, error) {
	pt, ok := m.handles[src]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoTable, src)
	}
	id := m.next
	m.next++
	pt.refs++
	m.handles[id] = pt
	m.clones++
	m.muts++
	return id, nil
}

// PhysOf returns the physical-table id a handle resolves to (-1 when
// the handle is unknown). Handles with equal PhysOf share storage.
func (m *Machine) PhysOf(table int) int {
	if pt, ok := m.handles[table]; ok {
		return pt.id
	}
	return -1
}

// PageEntry is one mapping of an exported page table.
type PageEntry struct {
	Page uint64
	Perm mem.Perm
}

// ExportTable returns a handle's mappings sorted by page number — the
// canonical rendering migration uses to compare page tables across
// nodes (and the CoW-split tests use to prove a sharer's table did not
// follow an exclusive update).
func (m *Machine) ExportTable(table int) ([]PageEntry, error) {
	pt, ok := m.handles[table]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoTable, table)
	}
	out := make([]PageEntry, 0, len(pt.pages))
	for p, perm := range pt.pages {
		out = append(out, PageEntry{Page: p, Perm: perm})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out, nil
}

// ShareStats returns (clones created, copy-on-write splits performed).
func (m *Machine) ShareStats() (clones, splits int64) {
	return m.clones, m.splits
}

// exclusive returns the handle's physical table, first splitting
// it off shared storage (full page copy) when other handles reference
// it — the copy-on-write fault of a real shared page-table scheme.
func (m *Machine) exclusive(table int) (*physTable, error) {
	pt, ok := m.handles[table]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoTable, table)
	}
	if pt.refs == 1 {
		return pt, nil
	}
	pt.refs--
	split := m.newPhys()
	for p, perm := range pt.pages {
		split.pages[p] = perm
	}
	m.handles[table] = split
	m.splits++
	return split, nil
}

// MapSection installs a section's pages with the given rights in this
// handle's view only: shared storage is split first (copy-on-write).
func (m *Machine) MapSection(table int, sec *mem.Section, perm mem.Perm) error {
	if uint64(sec.End()) >= 1<<PhysAddrBits {
		return fmt.Errorf("%w: %s", ErrTooHigh, sec)
	}
	pt, err := m.exclusive(table)
	if err != nil {
		return err
	}
	mapPages(pt, sec, perm)
	m.muts++
	return nil
}

// MapSectionShared installs a section's pages directly in the handle's
// physical table, updating every handle that shares it. Callers must
// guarantee the update is correct for all sharers — LB_VTX transfers
// are, because environments share a physical table only when their
// views (and so their transfer rights) are identical.
func (m *Machine) MapSectionShared(table int, sec *mem.Section, perm mem.Perm) error {
	if uint64(sec.End()) >= 1<<PhysAddrBits {
		return fmt.Errorf("%w: %s", ErrTooHigh, sec)
	}
	pt, ok := m.handles[table]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoTable, table)
	}
	mapPages(pt, sec, perm)
	m.muts++
	return nil
}

func mapPages(pt *physTable, sec *mem.Section, perm mem.Perm) {
	first, last, _ := mem.PageRange(sec.Base, sec.Size)
	for p := first; p <= last; p++ {
		pt.pages[p] = perm
	}
}

// UnmapSection clears the present bits for a section's pages in this
// handle's view only (copy-on-write, like MapSection).
func (m *Machine) UnmapSection(table int, sec *mem.Section) error {
	pt, err := m.exclusive(table)
	if err != nil {
		return err
	}
	unmapPages(pt, sec)
	m.muts++
	return nil
}

// UnmapSectionShared clears the present bits in the shared physical
// table (see MapSectionShared for the sharing contract).
func (m *Machine) UnmapSectionShared(table int, sec *mem.Section) error {
	pt, ok := m.handles[table]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoTable, table)
	}
	unmapPages(pt, sec)
	m.muts++
	return nil
}

func unmapPages(pt *physTable, sec *mem.Section) {
	first, last, _ := mem.PageRange(sec.Base, sec.Size)
	for p := first; p <= last; p++ {
		delete(pt.pages, p)
	}
}

// Mapped reports the rights table grants on addr (PermNone if absent).
func (m *Machine) Mapped(table int, addr mem.Addr) mem.Perm {
	pt, ok := m.handles[table]
	if !ok {
		return mem.PermNone
	}
	return pt.pages[addr.PageNumber()]
}

// CheckAccess validates a data access under the cpu's active page table
// (its CR3). A missing or insufficient mapping is an EPT violation.
func (m *Machine) CheckAccess(cpu *hw.CPU, addr mem.Addr, size uint64, write bool) error {
	if size == 0 {
		return nil
	}
	cpu.Clock.Advance(hw.CostPTWalk)
	cpu.Counters.PTWalks++
	pt, ok := m.handles[cpu.CR3()]
	if !ok {
		return fmt.Errorf("%w: CR3=%d", ErrNoTable, cpu.CR3())
	}
	first, last, ok := mem.PageRange(addr, size)
	if !ok {
		// The range wraps past 2^64 into page 0, which no table maps.
		return &AccessError{Addr: addr, Write: write, Table: cpu.CR3()}
	}
	for p := first; p <= last; p++ {
		perm := pt.pages[p]
		if !perm.Has(mem.PermR) || (write && !perm.Has(mem.PermW)) {
			return &AccessError{Addr: addr, Write: write, Table: cpu.CR3()}
		}
	}
	return nil
}

// CheckExec validates an instruction fetch at addr under the active
// table. LB_VTX enforces execute rights in the page tables, unlike MPK.
func (m *Machine) CheckExec(cpu *hw.CPU, addr mem.Addr) error {
	cpu.Clock.Advance(hw.CostPTWalk)
	cpu.Counters.PTWalks++
	pt, ok := m.handles[cpu.CR3()]
	if !ok {
		return fmt.Errorf("%w: CR3=%d", ErrNoTable, cpu.CR3())
	}
	if !pt.pages[addr.PageNumber()].Has(mem.PermX) {
		return &AccessError{Addr: addr, Exec: true, Table: cpu.CR3()}
	}
	return nil
}

// GuestSwitch performs the LB_VTX switch mechanism: a specialised system
// call into the guest kernel, which runs verify (the call-site check
// against the .verif specification held in super) and, if it passes,
// swaps CR3 to the target table and irets.
func (m *Machine) GuestSwitch(cpu *hw.CPU, target int, verify func() error) error {
	_, ok := m.handles[target]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoTable, target)
	}
	prev := cpu.GuestSyscallEntry()
	defer cpu.GuestSyscallExit(prev)
	if verify != nil {
		if err := verify(); err != nil {
			return err
		}
	}
	return cpu.WriteCR3(target)
}

// Hypercall forwards an authorised operation to the host: a VM EXIT,
// the host-side handler in root mode, then VM RESUME with the results.
func Hypercall[T any](cpu *hw.CPU, handler func() T) T {
	prev := cpu.VMExit()
	defer cpu.VMResume(prev)
	return handler()
}
