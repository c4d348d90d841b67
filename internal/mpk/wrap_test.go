package mpk

import (
	"testing"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/vtx"
)

// TestWrappedRangeRejected: a range whose end wraps past 2^64 names no
// page, so no check may pass it. An enclosure reaches this through
// pkey_mprotect, whose size argument the kernel passes straight on; a
// last page computed as (addr+size-1) used to wrap below the first, the
// page loop ran zero times, and every check below reported success.
func TestWrappedRangeRejected(t *testing.T) {
	space := mem.NewAddressSpace(0)
	clock := hw.NewClock()
	cpu := hw.NewCPU(clock)
	u := NewUnit(space)
	sec, err := space.Map("d", "p", mem.KindData, 2*mem.PageSize, mem.PermR|mem.PermW)
	if err != nil {
		t.Fatal(err)
	}
	key, errno := u.PkeyAlloc()
	if errno != kernel.OK {
		t.Fatal(errno)
	}
	k := kernel.New(space, clock)
	k.SetPkeyOps(u)
	proc := k.NewProc(0, 1, 0)
	m := vtx.NewMachine(space, clock)
	table := m.CreateTable()
	if err := m.MapSection(table, sec, mem.PermR); err != nil {
		t.Fatal(err)
	}
	if cpu.CR3() != table {
		t.Fatalf("CPU runs on table %d, want %d", cpu.CR3(), table)
	}
	cpu.WritePKRU(hw.PKRUAllDenied)

	for _, size := range []uint64{
		1<<64 - mem.PageSize,   // ends one page below base
		1<<64 - 1,              // ends at base-2
		1<<64 - 2*mem.PageSize, // page aligned, two pages short
	} {
		for _, c := range []struct {
			name   string
			passed func() bool
		}{
			{"mem.Mapped", func() bool { return space.Mapped(sec.Base, size) }},
			{"mem.PageRange", func() bool { _, _, ok := mem.PageRange(sec.Base, size); return ok }},
			{"PkeyMprotect", func() bool { return u.PkeyMprotect(sec.Base, size, mem.PermR|mem.PermW, key) != kernel.EINVAL }},
			{"pkey_mprotect syscall", func() bool {
				_, errno := k.InvokeUnfiltered(proc, cpu, kernel.NrPkeyMprotect,
					[6]uint64{uint64(sec.Base), size, uint64(mem.PermR | mem.PermW), uint64(key)})
				return errno != kernel.EINVAL
			}},
			{"mpk read", func() bool { return u.CheckAccess(cpu, sec.Base, size, false) == nil }},
			{"mpk write", func() bool { return u.CheckAccess(cpu, sec.Base, size, true) == nil }},
			{"vtx read", func() bool { return m.CheckAccess(cpu, sec.Base, size, false) == nil }},
			{"vtx write", func() bool { return m.CheckAccess(cpu, sec.Base, size, true) == nil }},
		} {
			if c.passed() {
				t.Errorf("%s: size %#x at %s passed", c.name, size, sec.Base)
			}
		}
	}
	if u.keyOf(sec.Base) != DefaultKey {
		t.Fatal("a rejected pkey_mprotect retagged the section")
	}
}
