//go:build race

package bench

// raceEnabled skips the host-wall floors: the race detector slows the
// measured paths unevenly, so their speedups say nothing under -race.
const raceEnabled = true
