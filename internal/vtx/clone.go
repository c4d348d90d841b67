package vtx

import (
	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/mem"
)

// Clone returns an independent machine over a cloned address space.
// Every physical table is deep-copied — shared-mode maps and unmaps
// (MapSectionShared) deliberately mutate a physical table in place so
// all intra-machine sharers see the change, which means cross-machine
// aliasing would leak a clone's transfers into the template. Handle ids
// and physical ids are preserved, so environments' published Table
// values and the content-address registry built over PhysOf stay valid
// in the clone.
func (m *Machine) Clone(space *mem.AddressSpace, clock *hw.Clock) *Machine {
	c := &Machine{
		space:   space,
		clock:   clock,
		handles: make(map[int]*physTable, len(m.handles)),
		next:    m.next,
		nphys:   m.nphys,
		clones:  m.clones,
		splits:  m.splits,
		muts:    m.muts,
	}
	// Physical tables can back several handles (CloneTable sharing);
	// preserve that aliasing structure so the clone's copy-on-write
	// split accounting behaves identically.
	copied := make(map[*physTable]*physTable, len(m.handles))
	for id, pt := range m.handles {
		np, ok := copied[pt]
		if !ok {
			np = &physTable{id: pt.id, pages: make(map[uint64]mem.Perm, len(pt.pages)), refs: pt.refs}
			for p, perm := range pt.pages {
				np.pages[p] = perm
			}
			copied[pt] = np
		}
		c.handles[id] = np
	}
	return c
}

// Generation returns a counter bumped by every table-mutating operation
// (create/clone/map/unmap). A pooled instance whose machine generation
// still matches its birth value can be recycled without rebuilding page
// tables.
func (m *Machine) Generation() int64 {
	return m.muts
}
