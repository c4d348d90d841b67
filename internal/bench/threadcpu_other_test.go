//go:build !linux

package bench

import "time"

var wallStart = time.Now()

// threadCPUNanos falls back to the monotonic wall clock where the
// thread CPU clock is not wired up.
func threadCPUNanos() int64 { return int64(time.Since(wallStart)) }
