//go:build linux

package online_test

import (
	"syscall"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPUNanos returns the CPU time the calling OS thread has used. Time
// the thread spends descheduled — other processes' load — does not count.
// A caller measuring a span locks its goroutine to its thread around it.
func threadCPUNanos() int64 {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(errno)
	}
	return ts.Nano()
}
