package online_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/online"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchSpec is a small streaming workload — large enough that the replanning
// IAR scheduler actually replans, small enough that one run is milliseconds.
func benchSpec() *workload.Spec {
	return &workload.Spec{
		Name: "bench-stream", Seed: 7, Length: 8000,
		Cohorts: []workload.Cohort{
			{Bench: "luindex", Scale: 0.05},
			{Bench: "fop", Scale: 0.05},
		},
		Phases: []workload.Phase{
			{Weight: 2, Process: workload.ProcessSteady},
			{Weight: 1, Process: workload.ProcessBursty, BurstMean: 8},
		},
	}
}

// BenchmarkOnlineWindow runs the replanning IAR scheduler across the
// lookahead ladder and reports the regret against offline IAR alongside the
// timing, so BENCH_online.json records both cost and quality per window.
func BenchmarkOnlineWindow(b *testing.B) {
	tr, p, err := benchSpec().Render()
	if err != nil {
		b.Fatal(err)
	}
	offSched, err := core.IAR(tr, p, core.IAROptions{})
	if err != nil {
		b.Fatal(err)
	}
	offRes, err := sim.Run(tr, p, offSched, sim.DefaultConfig(), sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, win := range []int{64, 512, 4096, 0} {
		name := fmt.Sprintf("window=%d", win)
		if win == 0 {
			name = "window=inf"
		}
		b.Run(name, func(b *testing.B) {
			var last *online.Result
			var stats online.SchedStats
			for i := 0; i < b.N; i++ {
				sched := online.NewIAR(p, core.IAROptions{}, 0)
				res, err := online.Run(tr, p, sched, online.Options{Window: win})
				if err != nil {
					b.Fatal(err)
				}
				last = res
				stats = sched.SchedStats()
			}
			b.ReportMetric(online.Regret(last.Sim.MakeSpan, offRes.MakeSpan), "regret%")
			b.ReportMetric(float64(len(last.Schedule)), "commits")
			b.ReportMetric(float64(stats.SchedNanos)/float64(tr.Len()), "sched-ns/call")
		})
	}
}

// BenchmarkOnlineLongStream is the incremental-replanning headline number: a
// stream an order of magnitude longer than benchSpec, where from-scratch
// replanning's O(N²/stride) scheduler-side cost dominates. It reports the
// warm-start scheduler's cost per call and its speedup over the frozen
// from-scratch reference (measured once, outside the timed loop).
func BenchmarkOnlineLongStream(b *testing.B) {
	spec := &workload.Spec{
		Name: "bench-long-stream", Seed: 7, Length: 80000,
		Cohorts: []workload.Cohort{
			{Bench: "luindex", Scale: 0.25},
			{Bench: "fop", Scale: 0.25},
			{Bench: "antlr", Scale: 0.25},
		},
		Phases: []workload.Phase{
			{Weight: 2, Process: workload.ProcessSteady},
			{Weight: 1, Process: workload.ProcessBursty, BurstMean: 8},
		},
	}
	tr, p, err := spec.Render()
	if err != nil {
		b.Fatal(err)
	}
	const win = 4096
	var stats online.SchedStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := online.NewIAR(p, core.IAROptions{}, 0)
		if _, err := online.Run(tr, p, sched, online.Options{Window: win}); err != nil {
			b.Fatal(err)
		}
		stats = sched.SchedStats()
	}
	b.StopTimer()
	ref := newIARFromScratch(p, core.IAROptions{}, 0)
	if _, err := online.Run(tr, p, ref, online.Options{Window: win}); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(stats.SchedNanos)/float64(tr.Len()), "sched-ns/call")
	b.ReportMetric(float64(ref.SchedStats().SchedNanos)/float64(stats.SchedNanos), "replan-speedup")
}

// BenchmarkOnlineSchedulers compares the three schedulers at one bounded
// window, the cost of a decision step being the interesting number. "none"
// commits nothing, so every function is compiled by the forced fallback and
// the op is the engine's own per-call cost.
func BenchmarkOnlineSchedulers(b *testing.B) {
	tr, p, err := benchSpec().Render()
	if err != nil {
		b.Fatal(err)
	}
	mk := map[string]func() (online.Scheduler, error){
		"iar": func() (online.Scheduler, error) {
			return online.NewIAR(p, core.IAROptions{}, 0), nil
		},
		"v8": func() (online.Scheduler, error) {
			return online.NewV8Style(p, profile.Level(p.Levels-1))
		},
		"sampled": func() (online.Scheduler, error) {
			return online.NewSampled(p, nil, 100)
		},
		"none": func() (online.Scheduler, error) {
			return nullScheduler{}, nil
		},
	}
	for _, name := range []string{"iar", "v8", "sampled", "none"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sched, err := mk[name]()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := online.Run(tr, p, sched, online.Options{Window: 1024}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkloadRender times the generator itself.
func BenchmarkWorkloadRender(b *testing.B) {
	s := benchSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Render(); err != nil {
			b.Fatal(err)
		}
	}
}
