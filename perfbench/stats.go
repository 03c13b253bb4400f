package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return quantile(c, 0.5)
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ratio returns a/b, or 0 when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssMiB reads the process's resident set size (VmRSS) from
// /proc/self/status.
func rssMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}

// cpuTime returns the CPU time the process has used, user plus system,
// across all its threads. Op and set-up times are measured on this clock,
// not the wall clock: on a shared virtual machine the host takes the vCPUs
// away for stretches (steal time) that can double a wall-clock time from
// one minute to the next, and that time is no cost of the code. A
// single-caller op's CPU time still counts the garbage collector's work on
// the other CPU, which the op's allocations caused.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail with RUSAGE_SELF and a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settleHeap collects garbage before a compute op, outside the op's time, so
// every op starts from the same heap. Otherwise the previous op's garbage is
// still held when the next op allocates, and the memory the op needs depends
// on where the collector happened to run: on search-certify the process's
// peak RSS read 257 to 409 MiB across runs of the same code.
func settleHeap() { runtime.GC() }

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// calibRefMS is the reference host speed: a round figure near the
// calibration kernel's median CPU time, in milliseconds, on the two-vCPU
// machine the benchmark was written on (Intel Xeon, 2 MiB L2 per core),
// where it read 3.7 to 5.8 ms. A scaled time reads as it would on a host
// where the kernel takes exactly calibRefMS.
const calibRefMS = 5.0

// calibBuf is the calibration kernel's working set, 4 MiB: past the
// per-core L2 cache, so the kernel waits on the shared cache as the
// workloads' ops do, besides computing.
var (
	calibBuf  = make([]uint32, 1<<20)
	calibSink uint32
)

// calibrate runs a fixed piece of work, which no code under test touches,
// and returns its CPU time in milliseconds. It allocates nothing, so it
// starts no garbage collection.
//
// On a shared host the CPU time of the same work rises and falls with what
// the neighbours run on the same cores and caches: over ten runs in six
// minutes corpus-offline's op times rose 20%, and this kernel, run between
// the ops, rose with them. Each run therefore samples the kernel between
// its ops, and the end-to-end times are scaled by calibRefMS over the
// run's median sample (see hostScale).
func calibrate() float64 {
	c0 := cpuTime()
	x := uint32(2463534242)
	var sum uint32
	for i := 0; i < 1<<16; i++ {
		// xorshift32 picks the slot; the inner loop is dependent
		// multiply-adds.
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & (1<<20 - 1)
		sum += calibBuf[j]
		calibBuf[j] = sum + x
		for k := uint32(0); k < 16; k++ {
			sum = sum*2654435761 + k
		}
	}
	calibSink = sum
	return float64((cpuTime() - c0).Nanoseconds()) / 1e6
}
