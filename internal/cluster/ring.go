// Package cluster scales the engine horizontally: N nodes, each
// wrapping an engine.Engine over its own program instance (its own
// backend, clock shards, fault domains, kernel namespaces), behind a
// load balancer with consistent-hash session affinity. Nodes exchange
// control traffic — image replication manifests, environment
// migrations — over a dedicated simnet control plane, so the whole
// cluster runs inside one process with virtual time and stays
// deterministic under a fixed seed.
//
// Every distributed mechanism keeps a cross-checked reference: image
// replication verifies content digests end-to-end, migration re-runs
// policy verification on the target and proves state fidelity by
// replaying the source's execution journal, and the probe integration
// pins that a migrated environment produces bit-identical outcomes to
// one that never moved.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes: each member owns
// vnodes points on a 64-bit circle, and a key routes to the first
// member points clockwise from the key's hash. Virtual nodes smooth the
// load split (the classic variance reduction), and because both point
// placement and key hashing are seeded FNV-1a, the mapping is a pure
// function of (seed, members, key) — the determinism the balancer
// tests pin.
//
// Ring is not synchronized; the Cluster serializes membership changes
// and lookups behind its own lock.
type Ring struct {
	seed    uint64
	vnodes  int
	points  []ringPoint // sorted by hash
	members map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing returns an empty ring. vnodes is the number of points per
// member (default 64 when <= 0).
func NewRing(seed uint64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{seed: seed, vnodes: vnodes, members: make(map[string]bool)}
}

// hash mixes the seed into an FNV-1a digest of s, then finalizes with
// a 64-bit avalanche (the murmur3 fmix64 constants). Raw FNV-1a has
// poor high-bit dispersion on short keys with shared prefixes —
// "client-0".."client-127" land on one small arc of the circle, which
// starves most members — and ring placement keys on the high bits.
func (r *Ring) hash(s string) uint64 {
	h := fnv.New64a()
	var seed [8]byte
	for i := 0; i < 8; i++ {
		seed[i] = byte(r.seed >> (8 * i))
	}
	h.Write(seed[:])
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a member's virtual nodes. Adding an existing member is a
// no-op.
func (r *Ring) Add(node string) {
	if r.members[node] {
		return
	}
	r.members[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash: r.hash(fmt.Sprintf("%s#%d", node, i)),
			node: node,
		})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Remove deletes a member's virtual nodes; keys it owned redistribute
// to their clockwise successors.
func (r *Ring) Remove(node string) {
	if !r.members[node] {
		return
	}
	delete(r.members, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// Lookup returns up to n distinct members for key, in ring order
// clockwise from the key's hash. The first member is the key's primary
// owner; the rest are its replica candidates — the balancer picks the
// least loaded among them (power-of-two-choices when n is 2) and falls
// back down the list when a node sheds or drains.
func (r *Ring) Lookup(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := r.hash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
