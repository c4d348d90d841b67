package litterbox

import (
	"fmt"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/seccomp"
)

// libmpk-style key virtualisation (§5.3: "Libmpk's key virtualization
// could be used to overcome Intel MPK's limitation if the need
// arises"). When clustering yields more meta-packages than hardware
// keys, meta-packages become *virtual* keys:
//
//   - physical key 1 is pinned to LitterBox's super meta-package;
//   - physical keys 2..14 are a cache of 13 slots holding the
//     most-recently-needed meta-packages;
//   - physical key 15 is the "cold" tag: evicted meta-packages' pages
//     carry it, and every enclosure PKRU denies it (trusted allows it,
//     since cold packages are ordinary data to non-enclosed code).
//
// A switch into an environment whose view includes a cold meta-package
// triggers the libmpk slow path: evict a cached meta-package the target
// does not need (FIFO), retag the victim's sections cold, retag the
// incoming meta-package with the freed key — every retag a charged
// pkey_mprotect — then recompute all PKRU values and reload the
// PKRU-indexed seccomp filter.

const (
	virtSuperKey  = 1
	virtFirstSlot = 2
	virtLastSlot  = 14
	virtColdKey   = 15
	// VirtCacheSlots is the number of cacheable meta-packages.
	VirtCacheSlots = virtLastSlot - virtFirstSlot + 1
)

// ErrViewTooWide reports an environment needing more meta-packages at
// once than the virtualised key cache can hold.
var ErrViewTooWide = fmt.Errorf("litterbox/mpk: memory view needs more than %d meta-packages (key cache exhausted)", VirtCacheSlots)

// virtState is the key-virtualisation bookkeeping.
type virtState struct {
	physOf    []int // meta index -> physical key, or virtColdKey
	slotMeta  []int // cache slot (phys key - virtFirstSlot) -> meta, -1 free
	fifo      []int // cached meta indices, eviction order
	superMeta int
	remaps    int64 // eviction slow paths taken
}

// setupVirt initialises virtualised key assignment during Setup.
func (b *MPKBackend) setupVirt(lb *LitterBox, metas [][]string) error {
	v := &virtState{
		physOf:    make([]int, len(metas)),
		slotMeta:  make([]int, VirtCacheSlots),
		superMeta: -1,
	}
	for i := range v.slotMeta {
		v.slotMeta[i] = -1
	}
	// Claim the physical keys from the unit so accounting stays honest.
	for k := 1; k < hw.NumKeys; k++ {
		if _, errno := b.unit.PkeyAlloc(); errno != kernel.OK {
			return fmt.Errorf("litterbox/mpk: pkey_alloc (virt): %v", errno)
		}
	}
	for i, group := range metas {
		v.physOf[i] = virtColdKey
		for _, pkg := range group {
			if pkg == superName {
				v.superMeta = i
			}
		}
	}
	if v.superMeta < 0 {
		return fmt.Errorf("litterbox/mpk: %s missing from clustering", superName)
	}
	v.physOf[v.superMeta] = virtSuperKey

	// Warm the cache with the first meta-packages in clustering order.
	slot := 0
	for i := range metas {
		if i == v.superMeta || slot >= VirtCacheSlots {
			continue
		}
		v.physOf[i] = virtFirstSlot + slot
		v.slotMeta[slot] = i
		v.fifo = append(v.fifo, i)
		slot++
	}
	b.virt = v
	b.superKey = virtSuperKey
	b.keyByMeta = nil // meaningless under virtualisation
	for i, group := range metas {
		for _, pkg := range group {
			b.keyOf[pkg] = v.physOf[i] // refreshed on every remap
		}
	}
	b.keyOf[kernel.HeapOwner] = virtSuperKey

	// Tag every section with its meta's current physical key.
	for _, sec := range lb.Space.Sections() {
		if errno := b.unit.PkeyMprotect(sec.Base, sec.Size, sec.Perm, b.currentKeyOf(sec.Pkg)); errno != kernel.OK {
			return fmt.Errorf("litterbox/mpk: tagging %s: %v", sec, errno)
		}
	}
	return nil
}

// currentKeyOf resolves a package's physical key under the live
// assignment (cold meta-packages report the cold key).
func (b *MPKBackend) currentKeyOf(pkg string) int {
	if b.virt == nil {
		if k, ok := b.keyOf[pkg]; ok {
			return k
		}
		return b.superKey
	}
	if pkg == kernel.HeapOwner {
		return virtSuperKey
	}
	m := b.lb.MetaOf(pkg)
	if m < 0 {
		return virtSuperKey
	}
	return b.virt.physOf[m]
}

// metasNeededBy lists the meta-package indices an environment's view
// touches (any access level above U).
func (b *MPKBackend) metasNeededBy(env *Env, metas [][]string) []int {
	var out []int
	for i, group := range metas {
		if env.ModOf(group[0]) > ModU {
			out = append(out, i)
		}
	}
	return out
}

// ensureCached pages the target environment's meta-packages into the
// key cache, evicting FIFO victims the target does not need. Returns
// whether any remapping happened.
func (b *MPKBackend) ensureCached(cpu *hw.CPU, env *Env) (bool, error) {
	if b.virt == nil || env.Trusted {
		return false, nil
	}
	metas := b.lb.MetaPackages()
	needed := b.metasNeededBy(env, metas)
	if len(needed) > VirtCacheSlots {
		return false, fmt.Errorf("%w: env %s needs %d", ErrViewTooWide, env.Name, len(needed))
	}
	need := make(map[int]bool, len(needed))
	for _, m := range needed {
		need[m] = true
	}
	changed := false
	for _, m := range needed {
		if m == b.virt.superMeta || b.virt.physOf[m] != virtColdKey {
			continue
		}
		phys, err := b.evictFor(cpu, need, metas)
		if err != nil {
			return changed, err
		}
		if err := b.retagMeta(cpu, metas, m, phys); err != nil {
			return changed, err
		}
		b.virt.physOf[m] = phys
		b.virt.slotMeta[phys-virtFirstSlot] = m
		b.virt.fifo = append(b.virt.fifo, m)
		b.virt.remaps++
		changed = true
	}
	if changed {
		// Physical assignments moved: refresh keyOf, every environment's
		// PKRU, and the PKRU-indexed syscall filter.
		for i, group := range metas {
			for _, pkg := range group {
				b.keyOf[pkg] = b.virt.physOf[i]
			}
		}
		b.rules = make(map[uint32]seccomp.EnvRule)
		for _, e := range b.lb.EnvsSnapshot() {
			b.derivePKRU(e, metas)
			b.addRule(e)
		}
		if err := b.reloadFilter(); err != nil {
			return changed, err
		}
	}
	return changed, nil
}

// evictFor frees one cache slot, preferring a free slot, else the
// oldest cached meta the target does not need.
func (b *MPKBackend) evictFor(cpu *hw.CPU, need map[int]bool, metas [][]string) (int, error) {
	for slot, m := range b.virt.slotMeta {
		if m == -1 {
			return virtFirstSlot + slot, nil
		}
	}
	for i, victim := range b.virt.fifo {
		if need[victim] {
			continue
		}
		phys := b.virt.physOf[victim]
		if err := b.retagMeta(cpu, metas, victim, virtColdKey); err != nil {
			return 0, err
		}
		b.virt.physOf[victim] = virtColdKey
		b.virt.fifo = append(b.virt.fifo[:i], b.virt.fifo[i+1:]...)
		return phys, nil
	}
	return 0, ErrViewTooWide
}

// retagMeta pkey_mprotects every section owned by the meta-package's
// members — the dominant cost of a libmpk key fault.
func (b *MPKBackend) retagMeta(cpu *hw.CPU, metas [][]string, meta, key int) error {
	members := make(map[string]bool, len(metas[meta]))
	for _, pkg := range metas[meta] {
		members[pkg] = true
	}
	for _, sec := range b.lb.Space.Sections() {
		if !members[sec.Pkg] {
			continue
		}
		cpu.Clock.Advance(hw.CostPkeyMprotect)
		cpu.Counters.PkeyMprotects++
		if errno := b.unit.PkeyMprotect(sec.Base, sec.Size, sec.Perm, key); errno != kernel.OK {
			return fmt.Errorf("litterbox/mpk: retag %s -> key %d: %v", sec, key, errno)
		}
	}
	return nil
}

// Remaps reports how many libmpk eviction slow paths have run.
func (b *MPKBackend) Remaps() int64 {
	if b.virt == nil {
		return 0
	}
	return b.virt.remaps
}

// Virtualized reports whether key virtualisation is active.
func (b *MPKBackend) Virtualized() bool { return b.virt != nil }

// derivePKRUVirt computes env's PKRU under the live assignment.
func (b *MPKBackend) derivePKRUVirt(env *Env, metas [][]string) {
	pkru := hw.PKRUAllDenied
	if env.Trusted {
		for k := 0; k < hw.NumKeys; k++ {
			pkru = pkru.WithKey(k, true, true)
		}
		pkru = pkru.WithKey(virtSuperKey, false, false)
		env.PKRU = pkru
		return
	}
	for i, group := range metas {
		mod := env.ModOf(group[0])
		if mod == ModU {
			continue
		}
		phys := b.virt.physOf[i]
		if phys == virtColdKey || phys == virtSuperKey {
			continue // cold views are paged in by ensureCached before use
		}
		pkru = pkru.WithKey(phys, mod >= ModR, mod >= ModRW)
	}
	env.PKRU = pkru
}
