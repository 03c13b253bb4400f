package astar

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestDispatchBucketFor(t *testing.T) {
	cases := map[int]int{-3: 0, 0: 0, 1: 1, dispatchBuckets - 1: dispatchBuckets - 1,
		dispatchBuckets: dispatchBuckets - 1, 1000: dispatchBuckets - 1}
	for in, want := range cases {
		if got := dispatchBucketFor(in); got != want {
			t.Errorf("dispatchBucketFor(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestDispatcherChoose drives the decision rule directly on a private table:
// unexplored buckets alternate modes, one-sided buckets explore the missing
// mode, and fully observed buckets pick the cheaper EWMA.
func TestDispatcherChoose(t *testing.T) {
	if runtime.GOMAXPROCS(0) <= 1 {
		t.Skip("single-proc: the dispatcher can only choose serial")
	}
	max := runtime.GOMAXPROCS(0)
	var d dispatcher

	// Unexplored: the two first calls must try both modes, in either order.
	first, second := d.choose(3), d.choose(3)
	if (first == 1) == (second == 1) {
		t.Errorf("exploration did not alternate: first=%d second=%d", first, second)
	}

	// Serial observed only: explore parallel.
	d.buckets[4].serialNsPerNode = 100
	if got := d.choose(4); got != max {
		t.Errorf("serial-only bucket chose %d, want %d (explore parallel)", got, max)
	}
	// Parallel observed only: explore serial.
	d.buckets[5].parallelNsPerNode = 100
	if got := d.choose(5); got != 1 {
		t.Errorf("parallel-only bucket chose %d, want 1 (explore serial)", got)
	}

	// Both observed: cheaper per-node estimate wins.
	d.buckets[6].serialNsPerNode = 200
	d.buckets[6].parallelNsPerNode = 100
	if got := d.choose(6); got != max {
		t.Errorf("parallel-cheaper bucket chose %d, want %d", got, max)
	}
	d.buckets[7].serialNsPerNode = 100
	d.buckets[7].parallelNsPerNode = 200
	if got := d.choose(7); got != 1 {
		t.Errorf("serial-cheaper bucket chose %d, want 1", got)
	}
}

// TestDispatcherObserve pins the EWMA update and the speedup gauge: once both
// modes of a bucket have data, the published estimate is their ratio in
// thousandths.
func TestDispatcherObserve(t *testing.T) {
	var d dispatcher
	d.observe(2, false, 1000*time.Nanosecond, 10) // 100 ns/node serial
	if got := d.buckets[2].serialNsPerNode; got != 100 {
		t.Fatalf("first observation did not seed the EWMA: %v", got)
	}
	d.observe(2, false, 2000*time.Nanosecond, 10) // 200 ns/node sample
	want := 100 + dispatchEWMAAlpha*(200-100)
	if got := d.buckets[2].serialNsPerNode; got != want {
		t.Errorf("EWMA after second observation = %v, want %v", got, want)
	}
	// Zero nodes / elapsed must be ignored, not divide by zero.
	d.observe(2, false, 0, 10)
	d.observe(2, false, time.Second, 0)
	if got := d.buckets[2].serialNsPerNode; got != want {
		t.Errorf("degenerate observations moved the EWMA: %v", got)
	}

	d.observe(2, true, 650*time.Nanosecond, 10) // 65 ns/node parallel
	snap := obs.Default().Snapshot()
	wantMilli := int64(want / 65 * 1000)
	if snap.SearchSpeedupMilli != wantMilli {
		t.Errorf("speedup gauge = %d, want %d", snap.SearchSpeedupMilli, wantMilli)
	}
}

// TestAutoDispatchBitIdentical is the determinism contract for Workers=0:
// whatever mode the dispatcher picks, the full Result must equal the pinned
// serial run — for BnB across repeated auto runs so both exploration
// branches execute, and for beam, which runs serially at every worker count.
func TestAutoDispatchBitIdentical(t *testing.T) {
	for seed := int64(900); seed < 904; seed++ {
		tr, p := tinyInstance(4+int(seed%3), 18, seed)
		serialBeam, err := BeamSearch(tr, p, BeamOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		serialBnB, err := BnBSearch(tr, p, BnBOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			autoBeam, err := BeamSearch(tr, p, BeamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serialBeam, autoBeam) {
				t.Errorf("seed %d run %d: auto beam differs from serial:\nserial: %+v\nauto:   %+v",
					seed, run, serialBeam, autoBeam)
			}
			autoBnB, err := BnBSearch(tr, p, BnBOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serialBnB, autoBnB) {
				t.Errorf("seed %d run %d: auto BnB differs from serial:\nserial: %+v\nauto:   %+v",
					seed, run, serialBnB, autoBnB)
			}
		}
	}
}

// TestAutoDispatchCounters: Workers=0 BnB runs must be visible in obs —
// every auto decision increments exactly one of the dispatch counters, and
// pinned worker counts increment neither.
func TestAutoDispatchCounters(t *testing.T) {
	tr, p := tinyInstance(5, 20, 77)
	decisions := func() int64 {
		s := obs.Default().Snapshot()
		return s.SearchDispatchSerial + s.SearchDispatchParallel
	}
	before := decisions()
	const autoRuns = 4
	for i := 0; i < autoRuns; i++ {
		if _, err := BnBSearch(tr, p, BnBOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := decisions() - before; got != autoRuns {
		t.Errorf("auto runs recorded %d dispatch decisions, want %d", got, autoRuns)
	}
	before = decisions()
	if _, err := BeamSearch(tr, p, BeamOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := BnBSearch(tr, p, BnBOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if got := decisions() - before; got != 0 {
		t.Errorf("pinned-worker runs recorded %d dispatch decisions, want 0", got)
	}
}

// TestBeamLeavesDispatcher: the dispatcher serves BnB only. A Workers=0
// beam must neither record a dispatch decision nor feed its per-node cost
// into the EWMA bucket BnB of the same function count reads, which would
// skew BnB's choice and flip its exploration.
func TestBeamLeavesDispatcher(t *testing.T) {
	tr, p := tinyInstance(5, 20, 78)
	snapshot := func() ([dispatchBuckets]dispatchBucket, int64, int64) {
		searchDispatcher.mu.Lock()
		defer searchDispatcher.mu.Unlock()
		s := obs.Default().Snapshot()
		return searchDispatcher.buckets, s.SearchDispatchSerial, s.SearchDispatchParallel
	}
	buckets, serial, parallel := snapshot()
	for i := 0; i < 3; i++ {
		if _, err := BeamSearch(tr, p, BeamOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	gotBuckets, gotSerial, gotParallel := snapshot()
	if gotBuckets != buckets {
		t.Errorf("Workers=0 beam changed the dispatch table:\nbefore: %+v\nafter:  %+v", buckets, gotBuckets)
	}
	if gotSerial != serial || gotParallel != parallel {
		t.Errorf("Workers=0 beam moved the dispatch counters: serial %d -> %d, parallel %d -> %d",
			serial, gotSerial, parallel, gotParallel)
	}
}
