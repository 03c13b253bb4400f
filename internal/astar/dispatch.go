package astar

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// Adaptive serial/parallel dispatch for branch-and-bound's batch-parallel
// search; it serves BnB only (beam always runs serially, so its costs never
// enter the table). BENCH_search.json shows the parallel pipeline only
// ~10-15% ahead of serial on small instances — goroutine fan-out has a floor
// cost, and below some instance size serial wins outright. Following the
// SPDP framework's online decision rule ("When to Give Up on a Parallel
// Implementation", PAPERS.md), Workers=0 means "auto": the dispatcher keeps a
// small EWMA table of observed per-node cost for each (instance-size bucket,
// mode) pair and picks the mode whose estimate is currently cheaper,
// exploring each unobserved mode once per bucket first. Because BnB is
// bit-identical for every worker count, the decision affects wall time only
// — never the result — so adaptivity is free of determinism risk. Decisions
// and the latest observed speedup are recorded in obs.Metrics
// (search_dispatch_serial / search_dispatch_parallel / search_speedup_milli)
// so the choice is auditable from /metrics.

// dispatchBuckets bounds the size table: instances are bucketed by
// unique-function count, the dominant driver of frontier width (and of the
// §6.2.5 feasibility cliff).
const dispatchBuckets = 16

// dispatchEWMAAlpha is the observation smoothing weight: recent runs count
// ~1/alpha times the tail.
const dispatchEWMAAlpha = 0.3

type dispatchBucket struct {
	// EWMA of observed ns per expanded node; 0 means no observation yet.
	serialNsPerNode   float64
	parallelNsPerNode float64
	// tryParallel alternates the first-exposure exploration so one mode
	// cannot starve the other of observations.
	tryParallel bool
}

type dispatcher struct {
	mu      sync.Mutex
	buckets [dispatchBuckets]dispatchBucket
}

// searchDispatcher is the process-wide dispatch table; serving workers and
// experiment jobs share its observations.
var searchDispatcher dispatcher

// dispatchBucketFor maps an instance's unique-function count to its bucket.
func dispatchBucketFor(uniqueFuncs int) int {
	if uniqueFuncs >= dispatchBuckets {
		return dispatchBuckets - 1
	}
	if uniqueFuncs < 0 {
		return 0
	}
	return uniqueFuncs
}

// choose picks the worker count for one auto-mode (Workers=0) job and
// records the decision in obs.Metrics.
func (d *dispatcher) choose(bucket int) int {
	maxWorkers := runtime.GOMAXPROCS(0)
	parallel := false
	d.mu.Lock()
	b := &d.buckets[bucket]
	switch {
	case maxWorkers <= 1:
		// No parallel capacity: serial is the only mode.
	case b.serialNsPerNode == 0 && b.parallelNsPerNode == 0:
		parallel = b.tryParallel
		b.tryParallel = !b.tryParallel
	case b.serialNsPerNode == 0:
		parallel = false
	case b.parallelNsPerNode == 0:
		parallel = true
	default:
		parallel = b.parallelNsPerNode < b.serialNsPerNode
	}
	d.mu.Unlock()
	obs.Default().SearchDispatch(parallel)
	if parallel {
		return maxWorkers
	}
	return 1
}

// observe feeds one completed auto-mode run back into the table and, once
// both modes of the bucket have data, publishes the observed speedup gauge.
func (d *dispatcher) observe(bucket int, parallel bool, elapsed time.Duration, nodes int) {
	if nodes <= 0 || elapsed <= 0 {
		return
	}
	perNode := float64(elapsed) / float64(nodes)
	d.mu.Lock()
	b := &d.buckets[bucket]
	slot := &b.serialNsPerNode
	if parallel {
		slot = &b.parallelNsPerNode
	}
	if *slot == 0 {
		*slot = perNode
	} else {
		*slot += dispatchEWMAAlpha * (perNode - *slot)
	}
	var milli int64
	if b.serialNsPerNode > 0 && b.parallelNsPerNode > 0 {
		milli = int64(b.serialNsPerNode / b.parallelNsPerNode * 1000)
	}
	d.mu.Unlock()
	if milli > 0 {
		obs.Default().SearchSpeedup(milli)
	}
}
