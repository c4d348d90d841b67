package litterbox

// All state a worker needs to resolve environments — the env table, the
// enclosure index, and the lazily materialised intersections — lives in
// one immutable envSnapshot. Writers (Init, intersection
// materialisation, dynamic imports) copy the snapshot, mutate the copy,
// and swap it in, so a snapshot once published never changes: a clone's
// birth snapshot stays intact for ResetTo to re-publish.
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
	// inter holds the materialised intersection environments, keyed by
	// the (from, to) pair that entered them.
	inter map[[2]EnvID]*Env
}

// clone copies the snapshot's containers for a copy-on-write update.
func (s *envSnapshot) clone() *envSnapshot {
	c := &envSnapshot{
		gen:     s.gen + 1,
		viewGen: s.viewGen,
		envs:    append([]*Env(nil), s.envs...),
		byEncl:  make(map[int]EnvID, len(s.byEncl)),
		inter:   make(map[[2]EnvID]*Env, len(s.inter)),
	}
	for k, v := range s.byEncl {
		c.byEncl[k] = v
	}
	for k, v := range s.inter {
		c.inter[k] = v
	}
	return c
}

// publish copies the current snapshot, applies mutate, and swaps the
// result in.
func (lb *LitterBox) publish(mutate func(*envSnapshot)) {
	next := lb.snap.clone()
	mutate(next)
	lb.snap = next
}

// bumpViewGen publishes a snapshot with the view generation advanced,
// flushing every per-worker EnvCache at its next lookup. Called by
// dynamic imports before and independent of the backend mapping's
// outcome, so no cache refilled mid-import survives it.
func (lb *LitterBox) bumpViewGen() {
	lb.publish(func(s *envSnapshot) { s.viewGen++ })
}

// SnapshotGen returns (publish generation, view generation) — test and
// benchmark introspection.
func (lb *LitterBox) SnapshotGen() (gen, viewGen uint64) {
	return lb.snap.gen, lb.snap.viewGen
}
