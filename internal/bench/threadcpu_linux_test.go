package bench

import (
	"syscall"
	"unsafe"
)

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPUNanos returns the CPU time the calling thread has used. The
// caller locks its goroutine to the thread (runtime.LockOSThread).
func threadCPUNanos() int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return ts.Nano()
}
