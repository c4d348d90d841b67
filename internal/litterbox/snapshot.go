package litterbox

// The env read path is RCU-style: all state a worker needs to resolve
// environments — the env table, the enclosure index, and the lazily
// materialised intersection entries — lives in one immutable
// envSnapshot behind an atomic pointer. Readers load the pointer and
// walk plain maps and slices with no lock and no contention; writers
// (Init, intersection materialisation, dynamic imports) serialise on
// lb.mu, copy the snapshot, mutate the copy, and swap it in. A reader
// that raced a writer simply sees the previous snapshot, which is
// always internally consistent.
type envSnapshot struct {
	// gen counts publishes (diagnostics only).
	gen uint64
	// viewGen counts view-shape changes — dynamic imports that extend
	// or shrink environment views. Per-worker EnvCaches key their
	// validity on it, so ordinary env additions (new intersections)
	// never flush them.
	viewGen uint64
	// envs is dense: envs[id] is the environment with EnvID id. The
	// writer allocates IDs in append order, so the index is the ID.
	envs []*Env
	// byEncl maps enclosure ID → environment ID.
	byEncl map[int]EnvID
	// inter holds the lazily materialised intersection environments;
	// the entry's ready channel carries the happens-before edge from
	// creator to concurrent waiters.
	inter map[[2]EnvID]*interEntry
}

// clone copies the snapshot's containers for a copy-on-write update.
func (s *envSnapshot) clone() *envSnapshot {
	c := &envSnapshot{
		gen:     s.gen + 1,
		viewGen: s.viewGen,
		envs:    append([]*Env(nil), s.envs...),
		byEncl:  make(map[int]EnvID, len(s.byEncl)),
		inter:   make(map[[2]EnvID]*interEntry, len(s.inter)),
	}
	for k, v := range s.byEncl {
		c.byEncl[k] = v
	}
	for k, v := range s.inter {
		c.inter[k] = v
	}
	return c
}

// publishLocked copies the current snapshot, applies mutate, and swaps
// the result in. The caller must hold lb.mu.
func (lb *LitterBox) publishLocked(mutate func(*envSnapshot)) {
	next := lb.snap.Load().clone()
	mutate(next)
	lb.snap.Store(next)
}

// bumpViewGen publishes a snapshot with the view generation advanced,
// flushing every per-worker EnvCache at its next lookup. Called by
// dynamic imports before and independent of the backend mapping's
// outcome, so no cache refilled mid-import survives it.
func (lb *LitterBox) bumpViewGen() {
	lb.mu.Lock()
	lb.publishLocked(func(s *envSnapshot) { s.viewGen++ })
	lb.mu.Unlock()
}

// SnapshotGen returns (publish generation, view generation) — test and
// benchmark introspection.
func (lb *LitterBox) SnapshotGen() (gen, viewGen uint64) {
	s := lb.snap.Load()
	return s.gen, s.viewGen
}
