package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// modelSec is the reference model's section: a value with its own
// identity, so owner transfers and restores can be followed.
type modelSec struct{ v Section }

// modelSpace is a map-based reference for AddressSpace: every page is
// an owned byte array (a clone deep-copies, so there is no sharing to
// get wrong), and Revert restores a deep copy of the birth state.
type modelSpace struct {
	pages map[uint64]*[PageSize]byte
	secs  []*modelSec // sorted by Base
	next  Addr
	limit Addr
	snap  *modelSnap
}

type modelSnap struct {
	pages map[uint64]*[PageSize]byte
	secs  []*modelSec
	vals  []Section
	next  Addr
}

func copyPages(m map[uint64]*[PageSize]byte) map[uint64]*[PageSize]byte {
	out := make(map[uint64]*[PageSize]byte, len(m))
	for p, arr := range m {
		cp := *arr
		out[p] = &cp
	}
	return out
}

func (m *modelSpace) mapSec(name, pkg string, kind SectionKind, size uint64, perm Perm) (*modelSec, error) {
	if size == 0 {
		return nil, ErrZeroSize
	}
	size = AlignUp(size)
	if m.next+Addr(size) > m.limit || m.next+Addr(size) < m.next {
		return nil, ErrExhausted
	}
	s := &modelSec{Section{Name: name, Pkg: pkg, Kind: kind, Base: m.next, Size: size, Perm: perm}}
	m.next += Addr(size)
	first, last, _ := PageRange(s.v.Base, s.v.Size)
	for p := first; p <= last; p++ {
		m.pages[p] = new([PageSize]byte)
	}
	m.secs = append(m.secs, s)
	return s, nil
}

func (m *modelSpace) unmap(s *modelSec) error {
	for i, sec := range m.secs {
		if sec == s {
			m.secs = append(m.secs[:i:i], m.secs[i+1:]...)
			first, last, _ := PageRange(s.v.Base, s.v.Size)
			for p := first; p <= last; p++ {
				delete(m.pages, p)
			}
			return nil
		}
	}
	return ErrDoubleUnmap
}

// copyAt copies page by page and stops at the first unmapped page, like
// the real space: the pages before it keep the copy.
func (m *modelSpace) copyAt(addr Addr, p []byte, write bool) error {
	for done := 0; done < len(p); {
		a := addr + Addr(done)
		page, ok := m.pages[a.PageNumber()]
		if !ok {
			return ErrUnmapped
		}
		off := int(a.PageOffset())
		n := min(PageSize-off, len(p)-done)
		if write {
			copy(page[off:off+n], p[done:done+n])
		} else {
			copy(p[done:done+n], page[off:off+n])
		}
		done += n
	}
	return nil
}

func (m *modelSpace) mapped(addr Addr, size uint64) bool {
	if size == 0 {
		return true
	}
	end := uint64(addr) + size - 1
	if end < uint64(addr) {
		return false // wraps past 2^64
	}
	for p := addr.PageNumber(); p <= end>>PageShift; p++ {
		if _, ok := m.pages[p]; !ok {
			return false
		}
	}
	return true
}

func (m *modelSpace) clone() *modelSpace {
	c := &modelSpace{pages: copyPages(m.pages), next: m.next, limit: m.limit}
	snap := &modelSnap{pages: copyPages(m.pages), next: m.next}
	for _, s := range m.secs {
		cs := &modelSec{s.v}
		c.secs = append(c.secs, cs)
		snap.secs = append(snap.secs, cs)
		snap.vals = append(snap.vals, s.v)
	}
	c.snap = snap
	return c
}

func (m *modelSpace) revert() error {
	if m.snap == nil {
		return ErrNoSnapshot
	}
	m.pages = copyPages(m.snap.pages)
	m.secs = append([]*modelSec(nil), m.snap.secs...)
	for i, s := range m.snap.secs {
		s.v = m.snap.vals[i]
	}
	m.next = m.snap.next
	return nil
}

// spacePair is one real address space and its model, with the model
// section each real section stands for.
type spacePair struct {
	real  *AddressSpace
	model *modelSpace
	secs  map[*Section]*modelSec
}

// sameErr reports whether the real error is the model's sentinel (or
// both are nil).
func sameErr(real, model error) bool {
	if model == nil {
		return real == nil
	}
	return errors.Is(real, model)
}

// TestAddressSpaceMatchesModel drives the page-indexed address space
// and a map-based reference model with the same random Map, Unmap,
// WriteAt, ReadAt, Mapped, SetOwner, CloneCoW (clones of clones too)
// and Revert operations, at addresses below baseVA, inside and past the
// mapped range and near 2^64, and compares every space's bytes, mapped
// pages and sections after each step.
func TestAddressSpaceMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runSpaceModel(t, seed, 300) })
	}
}

func runSpaceModel(t *testing.T, seed int64, steps int) {
	r := rand.New(rand.NewSource(seed))
	const capacity = 32 * PageSize
	root := &spacePair{
		real:  NewAddressSpace(capacity),
		model: &modelSpace{pages: map[uint64]*[PageSize]byte{}, next: baseVA, limit: baseVA + capacity},
		secs:  map[*Section]*modelSec{},
	}
	pairs := []*spacePair{root}
	var known []*Section // every real section ever mapped, in any space

	// addr picks an address below baseVA, in or just past a space's
	// mapped range, or near 2^64.
	addr := func(sp *spacePair) Addr {
		switch r.Intn(8) {
		case 0:
			return Addr(r.Int63n(int64(baseVA)))
		case 1:
			return Addr(1<<64 - 1 - uint64(r.Intn(3*PageSize)))
		default:
			return baseVA + Addr(r.Int63n(int64(sp.model.next-baseVA)+4*PageSize))
		}
	}
	size := func() uint64 {
		switch r.Intn(10) {
		case 0:
			return 0
		case 1:
			return 1<<64 - 1 - uint64(r.Intn(3))*PageSize - uint64(r.Intn(2))*(PageSize-1)
		default:
			return uint64(1 + r.Intn(3*PageSize))
		}
	}

	for step := 0; step < steps; step++ {
		sp := pairs[r.Intn(len(pairs))]
		var what string
		switch op := r.Intn(20); {
		case op < 4: // Map
			var n uint64 // zero one time in ten
			if r.Intn(10) > 0 {
				n = uint64(1 + r.Intn(6*PageSize))
			}
			name, pkg := fmt.Sprintf("s%d", step), string(rune('a'+r.Intn(3)))
			kind, perm := SectionKind(r.Intn(6)), Perm(r.Intn(8))
			what = fmt.Sprintf("Map(%d)", n)
			rs, rerr := sp.real.Map(name, pkg, kind, n, perm)
			ms, merr := sp.model.mapSec(name, pkg, kind, n, perm)
			if !sameErr(rerr, merr) {
				t.Fatalf("step %d %s: error %v, model %v", step, what, rerr, merr)
			}
			if rs != nil {
				sp.secs[rs] = ms
				known = append(known, rs)
			}
		case op < 6: // Unmap a current section or any section ever seen
			var s *Section
			if cur := sp.real.Sections(); len(cur) > 0 && r.Intn(3) > 0 {
				s = cur[r.Intn(len(cur))]
			} else if len(known) > 0 {
				s = known[r.Intn(len(known))]
			} else {
				continue
			}
			what = fmt.Sprintf("Unmap(%s)", s)
			rerr := sp.real.Unmap(s)
			merr := ErrDoubleUnmap
			if ms, ok := sp.secs[s]; ok {
				merr = sp.model.unmap(ms)
			}
			if !sameErr(rerr, merr) {
				t.Fatalf("step %d %s: error %v, model %v", step, what, rerr, merr)
			}
		case op < 10: // WriteAt
			a, n := addr(sp), 1+r.Intn(2*PageSize)
			buf := make([]byte, n)
			r.Read(buf)
			what = fmt.Sprintf("WriteAt(%s, %d)", a, n)
			rerr, merr := sp.real.WriteAt(a, buf), sp.model.copyAt(a, buf, true)
			if !sameErr(rerr, merr) {
				t.Fatalf("step %d %s: error %v, model %v", step, what, rerr, merr)
			}
		case op < 12: // ReadAt
			a, n := addr(sp), 1+r.Intn(2*PageSize)
			got, want := make([]byte, n), make([]byte, n)
			what = fmt.Sprintf("ReadAt(%s, %d)", a, n)
			rerr, merr := sp.real.ReadAt(a, got), sp.model.copyAt(a, want, false)
			if !sameErr(rerr, merr) || !bytes.Equal(got, want) {
				t.Fatalf("step %d %s: error %v, model %v, bytes equal %v", step, what, rerr, merr, bytes.Equal(got, want))
			}
		case op < 14: // Mapped and SectionAt
			a, n := addr(sp), size()
			what = fmt.Sprintf("Mapped(%s, %#x)", a, n)
			if got, want := sp.real.Mapped(a, n), sp.model.mapped(a, n); got != want {
				t.Fatalf("step %d %s = %v, model %v", step, what, got, want)
			}
			var want *modelSec
			for _, ms := range sp.model.secs {
				if ms.v.Contains(a, 1) {
					want = ms
				}
			}
			if got := sp.real.SectionAt(a); (got == nil) != (want == nil) || got != nil && sp.secs[got] != want {
				t.Fatalf("step %d SectionAt(%s) = %v, model %v", step, a, got, want)
			}
		case op < 15: // SetOwner
			cur := sp.real.Sections()
			if len(cur) == 0 {
				continue
			}
			s, pkg := cur[r.Intn(len(cur))], string(rune('a'+r.Intn(3)))
			what = fmt.Sprintf("SetOwner(%s, %s)", s, pkg)
			sp.real.SetOwner(s, pkg)
			sp.secs[s].v.Pkg = pkg
		case op < 17: // CloneCoW
			if len(pairs) >= 6 {
				pairs = append(pairs[:0], pairs[1:]...) // drop the oldest
				continue
			}
			what = "CloneCoW"
			rc, secMap := sp.real.CloneCoW()
			rc.Checkpoint()
			c := &spacePair{real: rc, model: sp.model.clone(), secs: map[*Section]*modelSec{}}
			cur := sp.real.Sections()
			for i, ms := range sp.model.secs {
				rs := cur[i]
				if sp.secs[rs] != ms {
					t.Fatalf("step %d: section %d of the parent does not match its model", step, i)
				}
				c.secs[secMap[rs]] = c.model.secs[i]
			}
			pairs = append(pairs, c)
		default: // Revert
			what = "Revert"
			rerr, merr := sp.real.Revert(), sp.model.revert()
			if !sameErr(rerr, merr) {
				t.Fatalf("step %d %s: error %v, model %v", step, what, rerr, merr)
			}
		}
		for i, p := range pairs {
			if err := p.matches(); err != nil {
				t.Fatalf("step %d after %s: space %d: %v", step, what, i, err)
			}
		}
	}
}

// matches compares every page from two pages below baseVA to four past
// the model's bump pointer, and the section list.
func (p *spacePair) matches() error {
	got, want := make([]byte, PageSize), make([]byte, PageSize)
	for a := baseVA - 2*PageSize; a < p.model.next+4*PageSize; a += PageSize {
		rerr, merr := p.real.ReadAt(a, got), p.model.copyAt(a, want, false)
		if !sameErr(rerr, merr) || !bytes.Equal(got, want) {
			return fmt.Errorf("page %s: read error %v, model %v, bytes equal %v", a, rerr, merr, bytes.Equal(got, want))
		}
		if r, m := p.real.Mapped(a, PageSize), p.model.mapped(a, PageSize); r != m {
			return fmt.Errorf("page %s: Mapped %v, model %v", a, r, m)
		}
	}
	secs := p.real.Sections()
	if len(secs) != len(p.model.secs) {
		return fmt.Errorf("%d sections, model %d", len(secs), len(p.model.secs))
	}
	for i, s := range secs {
		if ms := p.model.secs[i]; p.secs[s] != ms || *s != ms.v {
			return fmt.Errorf("section %d is %s, model %s", i, s, &ms.v)
		}
		if p.real.SectionAt(s.Base) != s {
			return fmt.Errorf("SectionAt(%s) is not %s", s.Base, s)
		}
	}
	return nil
}
