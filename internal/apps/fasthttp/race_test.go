//go:build race

package fasthttp_test

// poolDropAllocs is what the race detector may add to a request's
// allocation count: its sync.Pool drops a quarter of Puts, so some
// pooled stream blocks are allocated afresh (up to 5 for a 13 KB page).
const poolDropAllocs = 6
