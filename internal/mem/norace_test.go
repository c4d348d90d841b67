//go:build !race

package mem

// raceEnabled skips the page-pool allocation pin: under the race
// detector sync.Pool drops a quarter of its Puts, so a recycled page is
// sometimes allocated afresh.
const raceEnabled = false
