package cheri

import "github.com/litterbox-project/enclosure/internal/hw"

// Clone returns an independent capability unit with every table's
// capability list copied. Table ids (and the id cursor) are preserved so
// environments' published Table values remain valid in the clone.
func (u *Unit) Clone(clock *hw.Clock) *Unit {
	c := &Unit{clock: clock, tables: make(map[int]*table, len(u.tables)), next: u.next, muts: u.muts}
	for id, t := range u.tables {
		c.tables[id] = &table{caps: append([]Cap(nil), t.caps...)}
	}
	return c
}

// Generation returns a counter bumped by every capability-mutating
// operation (create/grant/revoke). A pooled instance whose unit
// generation still matches its birth value can be recycled without
// rebuilding capability tables.
func (u *Unit) Generation() int64 {
	return u.muts
}
