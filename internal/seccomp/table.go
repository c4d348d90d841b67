// Verdict tables are the compiled-policy fast path: each EnvRule set is
// flattened into an immutable per-PKRU table — a dense allow-bitmap over
// syscall numbers plus a connect-allowlist hash set — so the kernel can
// answer "is this call permitted in this environment?" with one hash
// probe and one bounds-checked bit test instead of interpreting the BPF
// program. This is the same move the Linux seccomp action cache
// (≥5.11) and eBPF JITs make: the BPF program stays the semantic
// reference (Program.Run), the table is a cache of its verdicts, and
// the two are cross-validated by fuzzing and by the kernel's optional
// cross-check mode.
//
// Artifacts are content-addressed: compiling the same rule set twice
// returns the same immutable *Artifacts from a package-level cache, so
// programs with identical policies (probe worlds, repeated dynamic
// imports, benchmark sweeps) share one compiled filter and one table.
package seccomp

import (
	"encoding/binary"
	"hash/fnv"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// envVerdict is one environment's flattened rule.
type envVerdict struct {
	// allow is the dense bitmap over syscall numbers; bit nr of word
	// nr/64 is set when the call is permitted unconditionally.
	allow []uint64
	// connectNr, when non-zero, engages the argument-level check: a call
	// with Nr == connectNr is allowed iff args[1]'s low word is in
	// connect. An engaged empty set denies every connect — exactly the
	// block buildEnvBlock compiles for intersected disjoint allowlists.
	connectNr uint32
	connect   map[uint32]struct{}
}

// tableSlot is one open-addressed PKRU index entry.
type tableSlot struct {
	pkru uint32
	env  *envVerdict // nil marks an empty slot
}

// VerdictTable is the immutable O(1) form of a compiled filter. It is
// safe for concurrent use: nothing mutates it after construction.
type VerdictTable struct {
	defaultAction uint32
	denyAction    uint32
	mask          uint32
	slots         []tableSlot
}

// pkruHash spreads PKRU values over the slot array (Fibonacci hashing;
// PKRU values differ mostly in their low per-key bit pairs).
func pkruHash(pkru uint32) uint32 { return pkru * 0x9E3779B9 }

// buildTable flattens the sorted rule slice. It must see the rules in
// the same order CompileFilter emits dispatch blocks, so that with
// duplicate PKRU values both artifacts resolve to the same (first
// matching) rule.
func buildTable(sorted []EnvRule, defaultAction, denyAction uint32) *VerdictTable {
	n := 1
	for n < 2*len(sorted)+1 {
		n <<= 1
	}
	t := &VerdictTable{
		defaultAction: defaultAction,
		denyAction:    denyAction,
		mask:          uint32(n - 1),
		slots:         make([]tableSlot, n),
	}
	for _, r := range sorted {
		if t.lookup(r.PKRU) != nil {
			continue // first matching block wins, as in the BPF dispatch
		}
		ev := &envVerdict{connectNr: r.ConnectNr}
		var max uint32
		for _, nr := range r.Allowed {
			if nr > max {
				max = nr
			}
		}
		ev.allow = make([]uint64, max/64+1)
		for _, nr := range r.Allowed {
			ev.allow[nr/64] |= 1 << (nr % 64)
		}
		if r.ConnectNr != 0 {
			ev.connect = make(map[uint32]struct{}, len(r.ConnectAllow))
			for _, h := range r.ConnectAllow {
				ev.connect[h] = struct{}{}
			}
		}
		i := pkruHash(r.PKRU) & t.mask
		for t.slots[i].env != nil {
			i = (i + 1) & t.mask
		}
		t.slots[i] = tableSlot{pkru: r.PKRU, env: ev}
	}
	return t
}

// lookup probes the PKRU index (nil when no rule matches).
func (t *VerdictTable) lookup(pkru uint32) *envVerdict {
	i := pkruHash(pkru) & t.mask
	for {
		s := &t.slots[i]
		if s.env == nil {
			return nil
		}
		if s.pkru == pkru {
			return s.env
		}
		i = (i + 1) & t.mask
	}
}

// Verdict returns the action the compiled BPF program would return for
// d, in O(1): one PKRU probe, then either a connect-set membership test
// or a bounds-checked bitmap load.
func (t *VerdictTable) Verdict(d *Data) uint32 {
	if d.Arch != AuditArchSim {
		return RetKillProcess
	}
	ev := t.lookup(d.PKRU)
	if ev == nil {
		return t.defaultAction
	}
	if ev.connectNr != 0 && d.Nr == ev.connectNr {
		if _, ok := ev.connect[uint32(d.Args[1])]; ok {
			return RetAllow
		}
		return t.denyAction
	}
	if w := d.Nr / 64; int(w) < len(ev.allow) && ev.allow[w]&(1<<(d.Nr%64)) != 0 {
		return RetAllow
	}
	return t.denyAction
}

// AllowedCount returns the cardinality of pkru's allow bitmap: the
// number of distinct syscall numbers the compiled filter permits the
// environment unconditionally (argument-gated connect rules are not
// counted — they allow a number only toward listed hosts). It returns
// -1 when no rule matches pkru and the default action decides every
// call, which for a trusted default-allow filter means an unbounded
// surface. The privilege analyzer uses this as the per-enclosure
// syscall-surface metric.
func (t *VerdictTable) AllowedCount(pkru uint32) int {
	ev := t.lookup(pkru)
	if ev == nil {
		return -1
	}
	n := 0
	for _, w := range ev.allow {
		n += bits.OnesCount64(w)
	}
	if w := ev.connectNr / 64; ev.connectNr != 0 && int(w) < len(ev.allow) && ev.allow[w]&(1<<(ev.connectNr%64)) != 0 {
		n-- // connect is argument-gated, not unconditional
	}
	return n
}

// Envs returns the number of distinct PKRU rules in the table.
func (t *VerdictTable) Envs() int {
	n := 0
	for i := range t.slots {
		if t.slots[i].env != nil {
			n++
		}
	}
	return n
}

// Artifacts bundles the two compiled forms of one filter: the BPF
// program (the reference semantics) and the verdict table (its O(1)
// cache), plus the content hash they are addressed by.
type Artifacts struct {
	Prog  *Program
	Table *VerdictTable
	Hash  uint64
}

// CompileArtifacts compiles rules into both artifact forms from one
// shared sorted copy, guaranteeing the table and the program resolve
// duplicate PKRU values identically.
func CompileArtifacts(rules []EnvRule, defaultAction, denyAction uint32) (*Artifacts, error) {
	sorted := sortRules(rules)
	prog, err := compileSorted(sorted, defaultAction, denyAction)
	if err != nil {
		return nil, err
	}
	key := canonicalKey(sorted, defaultAction, denyAction)
	h := fnv.New64a()
	h.Write(key)
	return &Artifacts{
		Prog:  prog,
		Table: buildTable(sorted, defaultAction, denyAction),
		Hash:  h.Sum64(),
	}, nil
}

// canonicalKey renders the sorted rule slice (with per-rule sorted,
// deduplicated members) plus the actions as the content-address bytes.
// Duplicate PKRU entries stay in the key: first-wins dispatch makes
// them part of the filter's meaning.
func canonicalKey(sorted []EnvRule, defaultAction, denyAction uint32) []byte {
	var out []byte
	var w [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(w[:], v)
		out = append(out, w[:]...)
	}
	put(defaultAction)
	put(denyAction)
	for _, r := range sorted {
		put(0xFFFFFFFF) // rule separator (not a valid length-prefixed field)
		put(r.PKRU)
		allowed := sortedSet(r.Allowed)
		put(uint32(len(allowed)))
		for _, nr := range allowed {
			put(nr)
		}
		put(r.ConnectNr)
		if r.ConnectNr != 0 {
			hosts := sortedSet(r.ConnectAllow)
			put(uint32(len(hosts)))
			for _, h := range hosts {
				put(h)
			}
		}
	}
	return out
}

// sortedSet returns a sorted, deduplicated copy.
func sortedSet(in []uint32) []uint32 {
	out := append([]uint32(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

// artifactCache is the package-level content-addressed artifact store.
// Entries are immutable, so cache hits share them freely across
// programs and goroutines. The map is bounded: compiling adversarial
// rule-set streams (the probe generator) resets it rather than growing
// it without limit.
type artifactCache struct {
	mu     sync.Mutex
	byHash map[uint64][]cacheEntry
	n      int
	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key string // full canonical key: hash collisions must not alias policies
	art *Artifacts
}

const artifactCacheCap = 4096

var artCache = &artifactCache{byHash: make(map[uint64][]cacheEntry)}

// CompileArtifactsCached is CompileArtifacts behind the content-address
// cache: identical rule sets (same actions, same per-PKRU members)
// return the same immutable *Artifacts without recompiling.
func CompileArtifactsCached(rules []EnvRule, defaultAction, denyAction uint32) (*Artifacts, error) {
	sorted := sortRules(rules)
	key := canonicalKey(sorted, defaultAction, denyAction)
	h := fnv.New64a()
	h.Write(key)
	sum := h.Sum64()

	artCache.mu.Lock()
	for _, e := range artCache.byHash[sum] {
		if e.key == string(key) {
			artCache.mu.Unlock()
			artCache.hits.Add(1)
			return e.art, nil
		}
	}
	artCache.mu.Unlock()
	artCache.misses.Add(1)

	prog, err := compileSorted(sorted, defaultAction, denyAction)
	if err != nil {
		return nil, err
	}
	art := &Artifacts{Prog: prog, Table: buildTable(sorted, defaultAction, denyAction), Hash: sum}

	artCache.mu.Lock()
	if artCache.n >= artifactCacheCap {
		artCache.byHash = make(map[uint64][]cacheEntry)
		artCache.n = 0
	}
	artCache.byHash[sum] = append(artCache.byHash[sum], cacheEntry{key: string(key), art: art})
	artCache.n++
	artCache.mu.Unlock()
	return art, nil
}
