// Package cheri simulates a CHERI-style capability unit as a
// LitterBox backend substrate. The paper names it the most appealing
// future enforcement mechanism (§7, §8): unlike page-based MPK/VT-x,
// capabilities are *byte-granular* — an execution environment holds a
// set of (base, length, permissions) capabilities, and an access is
// legal iff some capability covers it entirely. That granularity
// removes page-alignment fragmentation and, notably, lets the runtime
// "discriminate access to CPython's data and metadata while keeping
// them co-located": a write capability spanning just an object's
// 16-byte header inside an otherwise read-only region.
//
// The unit keeps one capability table per execution environment,
// selected by the CPU's table register (reusing the CR3 slot as a DDC
// table selector). Lookup is a binary search over base-sorted,
// possibly overlapping capabilities; overlapping grants are resolved
// permissively (any covering capability authorises the access), as a
// capability machine would.
package cheri

import (
	"errors"
	"fmt"
	"sort"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/mem"
)

// Cap is one capability: rights over [Base, Base+Len).
type Cap struct {
	Base mem.Addr
	Len  uint64
	Perm mem.Perm
}

// Covers reports whether the capability authorises the access.
func (c Cap) Covers(addr mem.Addr, size uint64, want mem.Perm) bool {
	return c.Perm.Has(want) &&
		addr >= c.Base &&
		uint64(addr-c.Base) <= c.Len &&
		size <= c.Len-uint64(addr-c.Base) // offset+size could wrap past 2^64
}

// String renders the capability.
func (c Cap) String() string {
	return fmt.Sprintf("cap{%s+%d %s}", c.Base, c.Len, c.Perm)
}

// Errors reported by the unit.
var ErrNoTable = errors.New("cheri: no such capability table")

// AccessError is a capability fault: no capability in the active table
// covers the access with the required rights.
type AccessError struct {
	Addr  mem.Addr
	Size  uint64
	Want  mem.Perm
	Table int
}

// Error implements the error interface.
func (e *AccessError) Error() string {
	return fmt.Sprintf("cheri: capability fault: %s %s+%d in table %d", e.Want, e.Addr, e.Size, e.Table)
}

// table is one environment's capability set, base-sorted.
type table struct {
	caps []Cap
}

func (t *table) insert(c Cap) {
	i := sort.Search(len(t.caps), func(i int) bool { return t.caps[i].Base > c.Base })
	t.caps = append(t.caps, Cap{})
	copy(t.caps[i+1:], t.caps[i:])
	t.caps[i] = c
}

// lookup reports whether any capability covers the access. Because
// grants may overlap and have different lengths, it walks left from the
// first capability whose base is past addr.
func (t *table) lookup(addr mem.Addr, size uint64, want mem.Perm) bool {
	i := sort.Search(len(t.caps), func(i int) bool { return t.caps[i].Base > addr })
	for j := i - 1; j >= 0; j-- {
		if t.caps[j].Covers(addr, size, want) {
			return true
		}
		// Capabilities are base-sorted; once bases are far below addr
		// we can only stop when lengths can no longer reach. Without a
		// max-length index, scan on — tables are small (per-package
		// grants), so this stays cheap.
	}
	return false
}

// removeRange drops capabilities entirely inside [base, base+len)
// (used when a span leaves an arena).
func (t *table) removeRange(base mem.Addr, length uint64) {
	out := t.caps[:0]
	for _, c := range t.caps {
		if c.Base >= base && uint64(c.Base-base)+c.Len <= length {
			continue
		}
		out = append(out, c)
	}
	t.caps = out
}

// Unit is the per-program capability machine.
type Unit struct {
	clock *hw.Clock

	tables map[int]*table
	next   int
	muts   int64 // bumped on every capability mutation (see clone.go)
}

// NewUnit returns an empty capability unit.
func NewUnit(clock *hw.Clock) *Unit {
	return &Unit{clock: clock, tables: make(map[int]*table)}
}

// CreateTable allocates an empty capability table and returns its id.
func (u *Unit) CreateTable() int {
	id := u.next
	u.next++
	u.tables[id] = &table{}
	u.muts++
	return id
}

// Grant installs a capability in a table.
func (u *Unit) Grant(tableID int, c Cap) error {
	t, ok := u.tables[tableID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoTable, tableID)
	}
	t.insert(c)
	u.muts++
	return nil
}

// RevokeRange removes capabilities wholly inside the range.
func (u *Unit) RevokeRange(tableID int, base mem.Addr, length uint64) error {
	t, ok := u.tables[tableID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoTable, tableID)
	}
	t.removeRange(base, length)
	u.muts++
	return nil
}

// Count returns the number of capabilities in a table.
func (u *Unit) Count(tableID int) int {
	if t, ok := u.tables[tableID]; ok {
		return len(t.caps)
	}
	return 0
}

// CheckAccess validates a data access under the CPU's active table.
func (u *Unit) CheckAccess(cpu *hw.CPU, addr mem.Addr, size uint64, write bool) error {
	if size == 0 {
		return nil
	}
	u.clock.Advance(hw.CostPTWalk) // a tag/bounds check, charged like a walk
	cpu.Counters.PTWalks++
	want := mem.PermR
	if write {
		want = mem.PermR | mem.PermW
	}
	t, ok := u.tables[cpu.CR3()]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoTable, cpu.CR3())
	}
	if !t.lookup(addr, size, want) {
		return &AccessError{Addr: addr, Size: size, Want: want, Table: cpu.CR3()}
	}
	return nil
}

// CheckExec validates an instruction fetch under the active table.
func (u *Unit) CheckExec(cpu *hw.CPU, addr mem.Addr) error {
	u.clock.Advance(hw.CostPTWalk)
	cpu.Counters.PTWalks++
	t, ok := u.tables[cpu.CR3()]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoTable, cpu.CR3())
	}
	if !t.lookup(addr, 1, mem.PermX) {
		return &AccessError{Addr: addr, Size: 1, Want: mem.PermX, Table: cpu.CR3()}
	}
	return nil
}

// Switch installs a table on the CPU, charging the projected
// capability-table switch cost.
func (u *Unit) Switch(cpu *hw.CPU, tableID int) error {
	_, ok := u.tables[tableID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoTable, tableID)
	}
	u.clock.Advance(hw.CostCapSwitch)
	// The capability-table register swap is unprivileged in this model
	// (sealed-capability jump); reuse the CR3 slot via kernel mode.
	prev := cpu.Mode()
	cpu.SetMode(hw.ModeGuestKernel)
	err := cpu.WriteCR3(tableID)
	cpu.SetMode(prev)
	return err
}
