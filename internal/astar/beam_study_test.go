package astar_test

import (
	"runtime"
	"testing"

	"repro/internal/astar"
	"repro/internal/experiments"
	"repro/internal/profile"
	"repro/internal/trace"
)

// beamCost runs BeamSearch reps times and returns its allocations and bytes
// per run.
func beamCost(t *testing.T, tr *trace.Trace, p *profile.Profile, opts astar.BeamOptions, reps int) (allocs float64, bytes uint64) {
	t.Helper()
	allocs = testing.AllocsPerRun(reps, func() {
		if _, err := astar.BeamSearch(tr, p, opts); err != nil {
			t.Fatal(err)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if _, err := astar.BeamSearch(tr, p, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / uint64(reps)
}

// TestBeamAllocGuard is the beam budget wired into `make bench-guard`. A
// default-width beam on the nine-function study instance scores ~6,000
// children per depth but builds only the 256 survivors, into arenas reused
// across depths: it stays at or under 200 allocations and 2 MB per run,
// where materialising every child as a node read ~112,000 allocations and
// ~30 MB. A width far beyond any frontier on a three-function instance must
// stay under 1 MB, so buffers sized from Width instead of from the
// survivors fail it.
func TestBeamAllocGuard(t *testing.T) {
	const (
		maxAllocsPerRun = 200
		maxBytesPerRun  = 2 << 20
		maxHugeWidthRun = 1 << 20
	)
	tr, p := experiments.AStarInstance(9, 50, 903)
	allocs, bytes := beamCost(t, tr, p, astar.BeamOptions{}, 5)
	if allocs > maxAllocsPerRun {
		t.Errorf("default-width beam: %.0f allocs/run, budget %d", allocs, maxAllocsPerRun)
	}
	if bytes > maxBytesPerRun {
		t.Errorf("default-width beam: %d B/run, budget %d", bytes, maxBytesPerRun)
	}
	t.Logf("nf9/903: %.0f allocs/run, %d B/run (budgets %d, %d)", allocs, bytes, maxAllocsPerRun, maxBytesPerRun)

	tr3, p3 := experiments.AStarInstance(3, 50, 903)
	_, bytes = beamCost(t, tr3, p3, astar.BeamOptions{Width: 1 << 30}, 2)
	if bytes >= maxHugeWidthRun {
		t.Errorf("width 1<<30 on 3 functions: %d B/run, want < %d", bytes, maxHugeWidthRun)
	}
	t.Logf("nf3/903 width 1<<30: %d B/run", bytes)
}

// BenchmarkBeamSearchStudy times a default-width beam on the nine-function
// study instance search-certify runs, the size where the per-depth child
// count (~6,000) dwarfs the width.
func BenchmarkBeamSearchStudy(b *testing.B) {
	tr, p := experiments.AStarInstance(9, 50, 903)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := astar.BeamSearch(tr, p, astar.BeamOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
