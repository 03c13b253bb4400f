package online_test

// The PR's two enforced budgets for incremental replanning: the scheduler's
// warm hot loop must be (amortized) allocation-free, and the warm-start
// planner must actually buy the promised speedup over the frozen
// from-scratch reference. Both run from `make bench-guard`.

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/online"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestOnlineObserveAllocGuard drives the incremental IAR scheduler's hot
// loop — cursor extension plus Observe, replanning every 64 calls — over the
// second half of a stream after warming on the first half, and holds the
// amortized allocation rate near zero. Steady-state allocations come only
// from the planner's simulation arenas doubling as the stream grows, so the
// budget is a small fraction of an allocation per call.
func TestOnlineObserveAllocGuard(t *testing.T) {
	tr, p := streamCorpus(t)
	sched := online.NewIAR(p, core.IAROptions{}, 64)
	cursor := trace.NewPrefix(tr)
	n := tr.Len()
	const window = 512
	step := func(i int) {
		hi := i + window
		if hi > n {
			hi = n
		}
		if err := cursor.Extend(hi); err != nil {
			t.Fatal(err)
		}
		if _, err := sched.Observe(i, cursor.Trace(), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	half := n / 2
	for i := 0; i < half; i++ {
		step(i)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := half; i < n; i++ {
		step(i)
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.Mallocs-before.Mallocs) / float64(n-half)
	if perCall > 0.1 {
		t.Errorf("warm online IAR hot loop allocates %.3f objects/call, budget is 0.1", perCall)
	}
}

// TestOnlineReplanSpeedupGuard holds the incremental replanner to a minimum
// scheduler-side advantage over the from-scratch reference on a moderate
// stream: at least 3x less wall time spent replanning (best of three tries,
// to ride out scheduler noise). This is the enforceable floor under the
// BenchmarkOnlineLongStream replan-speedup metric.
func TestOnlineReplanSpeedupGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup guard runs the quadratic reference")
	}
	spec := &workload.Spec{
		Name: "guard-stream", Seed: 17, Length: 24000,
		Cohorts: []workload.Cohort{
			{Bench: "luindex", Scale: 0.1},
			{Bench: "fop", Scale: 0.1},
			{Bench: "antlr", Scale: 0.1},
		},
		Phases: []workload.Phase{
			{Weight: 2, Process: workload.ProcessSteady},
			{Weight: 1, Process: workload.ProcessBursty, BurstMean: 8},
		},
	}
	tr, p, err := spec.Render()
	if err != nil {
		t.Fatal(err)
	}
	const minSpeedup = 3.0
	best := 0.0
	for try := 0; try < 3; try++ {
		inc := online.NewIAR(p, core.IAROptions{}, 0)
		if _, err := online.Run(tr, p, inc, online.Options{Window: 4096}); err != nil {
			t.Fatal(err)
		}
		ref := newIARFromScratch(p, core.IAROptions{}, 0)
		if _, err := online.Run(tr, p, ref, online.Options{Window: 4096}); err != nil {
			t.Fatal(err)
		}
		is, rs := inc.SchedStats(), ref.SchedStats()
		if is.Replans != rs.Replans {
			t.Fatalf("try %d: %d replans vs reference's %d", try, is.Replans, rs.Replans)
		}
		if is.DirtySkips == 0 {
			t.Fatalf("try %d: warm-start fast path never fired across %d replans", try, is.Replans)
		}
		if s := float64(rs.SchedNanos) / float64(is.SchedNanos); s > best {
			best = s
		}
		if best >= minSpeedup {
			break
		}
	}
	if best < minSpeedup {
		t.Errorf("incremental replanning is only %.2fx faster than from-scratch, floor is %.1fx", best, minSpeedup)
	}
}
