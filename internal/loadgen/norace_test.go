//go:build !race

package loadgen

// raceEnabled skips the response-check allocation pin: under the race
// detector sync.Pool drops a quarter of its Puts, so a pooled stream
// block is sometimes allocated afresh.
const raceEnabled = false
