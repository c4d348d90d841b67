package mpk

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/mem"
)

// modelUnit is a map-based reference for Unit's key state: the tags of
// tracked pages by page number (a missing page is untracked), and for a
// clone a deep copy of its birth state that Revert restores.
type modelUnit struct {
	used  [hw.NumKeys]bool
	tags  map[uint64]pte
	muts  int64
	birth *modelUnit
}

func (m *modelUnit) copy() *modelUnit {
	return &modelUnit{used: m.used, tags: maps.Clone(m.tags), muts: m.muts}
}

func (m *modelUnit) alloc() (int, kernel.Errno) {
	for k := 1; k < hw.NumKeys; k++ {
		if !m.used[k] {
			m.used[k] = true
			m.muts++
			return k, kernel.OK
		}
	}
	return -1, kernel.ENOSYS
}

func (m *modelUnit) free(key int) kernel.Errno {
	if key <= 0 || key >= hw.NumKeys || !m.used[key] {
		return kernel.EINVAL
	}
	m.used[key] = false
	m.muts++
	return kernel.OK
}

// wraps reports whether [addr, addr+size) runs past 2^64.
func wraps(addr mem.Addr, size uint64) bool { return uint64(addr)+size-1 < uint64(addr) }

func (m *modelUnit) mprotect(space *mem.AddressSpace, base mem.Addr, size uint64, perm mem.Perm, key int) kernel.Errno {
	if !base.PageAligned() || size == 0 || size%mem.PageSize != 0 || wraps(base, size) {
		return kernel.EINVAL
	}
	if key < 0 || key >= hw.NumKeys || !m.used[key] {
		return kernel.EINVAL
	}
	if !space.Mapped(base, size) {
		return kernel.ENOENT
	}
	for a := base; a < base+mem.Addr(size); a += mem.PageSize {
		m.tags[a.PageNumber()] = pte{perm: perm, key: uint8(key), tracked: true}
	}
	m.muts++
	return kernel.OK
}

// check returns the fault a data access should raise: "" for none,
// "unmapped", or "key K" for a protection fault on key K.
func (m *modelUnit) check(space *mem.AddressSpace, pkru hw.PKRU, addr mem.Addr, size uint64, write bool) string {
	if size == 0 {
		return ""
	}
	if wraps(addr, size) {
		return "unmapped"
	}
	for p := addr.PageNumber(); p <= (uint64(addr)+size-1)>>mem.PageShift; p++ {
		e, ok := m.tags[p]
		if !ok {
			sec := space.SectionAt(mem.Addr(p << mem.PageShift))
			if sec == nil {
				return "unmapped"
			}
			e = pte{perm: sec.Perm}
		}
		k := int(e.key)
		if !e.perm.Has(mem.PermR) || write && !e.perm.Has(mem.PermW) ||
			write && !pkru.CanWrite(k) || !write && !pkru.CanRead(k) {
			return fmt.Sprintf("key %d", k)
		}
	}
	return ""
}

// fault renders a real CheckAccess result the way check does.
func fault(err error, write bool) string {
	var ae *AccessError
	switch {
	case err == nil:
		return ""
	case errors.Is(err, mem.ErrUnmapped):
		return "unmapped"
	case errors.As(err, &ae) && ae.Write == write:
		return fmt.Sprintf("key %d", ae.Key)
	}
	return err.Error()
}

// unitPair is one real unit and its model.
type unitPair struct {
	real  *Unit
	model *modelUnit
}

// matches compares the key bitmap, the generation and the set of
// tracked tags.
func (p *unitPair) matches() error {
	got := birthOf(p.real)
	want := make(map[int]pte, len(p.model.tags))
	for pn, e := range p.model.tags {
		want[mem.PageIndex(pn)] = e
	}
	if got.used != p.model.used || got.gen != p.model.muts || !maps.Equal(got.pages, want) {
		return fmt.Errorf("unit holds keys %v, generation %d, tags %v; model %v, %d, %v",
			got.used, got.gen, got.pages, p.model.used, p.model.muts, want)
	}
	return nil
}

// TestUnitMatchesModel drives the page-indexed tag table and a
// map-based reference model with the same random PkeyAlloc, PkeyFree,
// PkeyMprotect (misaligned, unmapped, zero and wrapping ranges too),
// CheckAccess, Clone (clones of clones too) and Revert operations, while
// sections come and go in the address space underneath, and compares
// every unit's keys, generation and tags after each step.
func TestUnitMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runUnitModel(t, seed, 400) })
	}
}

func runUnitModel(t *testing.T, seed int64, steps int) {
	r := rand.New(rand.NewSource(seed))
	space := mem.NewAddressSpace(64 * mem.PageSize)
	clock := hw.NewClock()
	cpu := hw.NewCPU(clock)
	pairs := []*unitPair{{real: NewUnit(space), model: &modelUnit{tags: map[uint64]pte{}}}}
	pairs[0].model.used[DefaultKey] = true
	base, _ := space.Map("first", "p", mem.KindData, mem.PageSize, mem.PermR|mem.PermW)

	addr := func() mem.Addr {
		secs := space.Sections()
		end := base.Base + 8*mem.PageSize
		if len(secs) > 0 {
			end = secs[len(secs)-1].End() + 2*mem.PageSize
		}
		switch r.Intn(6) {
		case 0:
			return mem.Addr(r.Int63n(int64(base.Base)))
		case 1:
			return base.Base + mem.Addr(r.Int63n(int64(end-base.Base)))&^(mem.PageSize-1)
		case 2:
			if len(secs) > 0 {
				return secs[r.Intn(len(secs))].Base
			}
		}
		return base.Base + mem.Addr(r.Int63n(int64(end-base.Base)))
	}
	size := func() uint64 {
		switch r.Intn(8) {
		case 0:
			return 0
		case 1:
			return 1<<64 - mem.PageSize - uint64(r.Intn(3))*mem.PageSize
		case 2:
			return uint64(1 + r.Intn(3*mem.PageSize))
		}
		return uint64(1+r.Intn(4)) * mem.PageSize
	}
	// key mostly picks a key the unit holds, so retags succeed.
	key := func(p *unitPair) int {
		k := r.Intn(hw.NumKeys+2) - 1
		for i := 0; i < 3 && (k < 0 || k >= hw.NumKeys || !p.model.used[k]); i++ {
			k = r.Intn(hw.NumKeys)
		}
		return k
	}

	for step := 0; step < steps; step++ {
		p := pairs[r.Intn(len(pairs))]
		var what string
		switch op := r.Intn(20); {
		case op < 3:
			what = "PkeyAlloc"
			k, errno := p.real.PkeyAlloc()
			mk, merrno := p.model.alloc()
			if k != mk || errno != merrno {
				t.Fatalf("step %d %s = %d, %v; model %d, %v", step, what, k, errno, mk, merrno)
			}
		case op < 4:
			k := key(p)
			what = fmt.Sprintf("PkeyFree(%d)", k)
			if errno, merrno := p.real.PkeyFree(k), p.model.free(k); errno != merrno {
				t.Fatalf("step %d %s = %v; model %v", step, what, errno, merrno)
			}
		case op < 9:
			a, n, perm, k := addr(), size(), mem.Perm(r.Intn(8)), key(p)
			what = fmt.Sprintf("PkeyMprotect(%s, %#x, %s, %d)", a, n, perm, k)
			errno, merrno := p.real.PkeyMprotect(a, n, perm, k), p.model.mprotect(space, a, n, perm, k)
			if errno != merrno {
				t.Fatalf("step %d %s = %v; model %v", step, what, errno, merrno)
			}
		case op < 13:
			pkru := hw.PKRU(r.Uint32())
			if r.Intn(2) == 0 {
				pkru = hw.PKRUAllAllowed
			}
			cpu.WritePKRU(pkru)
			a, n, write := addr(), size(), r.Intn(2) == 0
			what = fmt.Sprintf("CheckAccess(%s, %s, %#x, write=%v)", pkru, a, n, write)
			got := fault(p.real.CheckAccess(cpu, a, n, write), write)
			if want := p.model.check(space, pkru, a, n, write); got != want {
				t.Fatalf("step %d %s faults %q; model %q", step, what, got, want)
			}
		case op < 14:
			what = "Map"
			if _, err := space.Map("s", "p", mem.KindHeap, uint64(1+r.Intn(3))*mem.PageSize, mem.Perm(r.Intn(8))); err != nil && !errors.Is(err, mem.ErrExhausted) {
				t.Fatal(err)
			}
		case op < 15:
			what = "Unmap"
			if secs := space.Sections(); len(secs) > 1 {
				if err := space.Unmap(secs[1+r.Intn(len(secs)-1)]); err != nil {
					t.Fatal(err)
				}
			}
		case op < 16:
			if len(pairs) >= 6 {
				pairs = append(pairs[:0], pairs[1:]...) // drop the oldest
				continue
			}
			what = "Clone"
			c := &unitPair{real: p.real.Clone(space), model: p.model.copy()}
			c.model.birth = p.model.copy()
			pairs = append(pairs, c)
		default:
			what = "Revert"
			p.real.Revert()
			if b := p.model.birth; b != nil {
				*p.model = *b.copy()
				p.model.birth = b
			}
		}
		for i, q := range pairs {
			if err := q.matches(); err != nil {
				t.Fatalf("step %d after %s: unit %d: %v", step, what, i, err)
			}
		}
	}
}
