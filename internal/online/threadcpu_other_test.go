//go:build !linux

package online_test

import "time"

// threadCPUNanos falls back to wall time where no per-thread CPU clock is
// wired up; the speedup guard then reads wall time, as it once did.
func threadCPUNanos() int64 { return time.Now().UnixNano() }
