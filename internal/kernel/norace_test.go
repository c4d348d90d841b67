//go:build !race

package kernel

// raceEnabled skips the allocation pins over stream I/O: under the race
// detector sync.Pool drops a quarter of its Puts, so a pooled stream
// block is sometimes allocated afresh.
const raceEnabled = false
