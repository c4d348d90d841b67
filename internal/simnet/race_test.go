//go:build race

package simnet

// raceEnabled skips the allocation pin: under the race detector
// sync.Pool drops a quarter of its Puts, so a pooled block is
// sometimes allocated afresh.
const raceEnabled = true
