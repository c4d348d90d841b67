//go:build !race

package core

// raceEnabled skips the recycle allocation pin: the race detector
// instruments allocation paths and sync.Pool drops a quarter of its
// Puts, so the counts it sees are not the program's.
const raceEnabled = false
