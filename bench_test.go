// Benchmarks regenerating each paper table and figure (see EXPERIMENTS.md),
// plus micro-benchmarks of the core algorithms and ablation benchmarks for
// IAR's design choices. Quality metrics (normalized make-spans) are emitted
// via b.ReportMetric alongside the timing, so `go test -bench=.` doubles as
// a results dashboard.
package repro_test

import (
	"testing"

	"repro/internal/astar"
	"repro/internal/core"
	"repro/internal/dacapo"
	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
)

// freshRunner is a runner with an empty result cache. The figure and study
// benchmarks give one to every iteration: through the process-wide
// runner.Shared(), every iteration after the first would be served from its
// cache.
func freshRunner() *runner.Runner { return runner.New(runner.Options{}) }

// BenchmarkTable1 regenerates the benchmark-characteristics table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(experiments.Options{Runner: freshRunner()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates Figure 5 (default cost-benefit model) and
// reports the key normalized make-spans.
func BenchmarkFig5(b *testing.B) {
	var res *experiments.FigResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig5(experiments.Options{Runner: freshRunner()})
		if err != nil {
			b.Fatal(err)
		}
	}
	avg := res.Averages()
	b.ReportMetric(avg[experiments.SchemeIAR], "IAR/LB")
	b.ReportMetric(avg[experiments.SchemeDefault], "default/LB")
}

// BenchmarkFig6 regenerates Figure 6 (oracle cost-benefit model).
func BenchmarkFig6(b *testing.B) {
	var res *experiments.FigResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig6(experiments.Options{Runner: freshRunner()})
		if err != nil {
			b.Fatal(err)
		}
	}
	avg := res.Averages()
	b.ReportMetric(avg[experiments.SchemeIAR], "IAR/LB")
	b.ReportMetric(avg[experiments.SchemeDefault], "default/LB")
}

// BenchmarkFig7 regenerates Figure 7 (concurrent JIT speedups under IAR).
func BenchmarkFig7(b *testing.B) {
	var res *experiments.Fig7Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig7(experiments.Options{Runner: freshRunner()})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Averages()[16], "speedup-16-cores")
}

// BenchmarkFig8 regenerates Figure 8 (the V8 scheme on two levels).
func BenchmarkFig8(b *testing.B) {
	var res *experiments.FigResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig8(experiments.Options{Runner: freshRunner()})
		if err != nil {
			b.Fatal(err)
		}
	}
	avg := res.Averages()
	b.ReportMetric(avg[experiments.SchemeV8], "V8/LB")
	b.ReportMetric(avg[experiments.SchemeIAR], "IAR/LB")
}

// BenchmarkTable2 regenerates the IAR-overhead table.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(experiments.Options{Runner: freshRunner()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAStarStudy regenerates the §6.2.5 feasibility sweep (3..8 unique
// functions, node budget standing in for the 2 GB heap).
func BenchmarkAStarStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AStarStudy(experiments.AStarOptions{Runner: freshRunner()}); err != nil {
			b.Fatal(err)
		}
	}
}

// loadBench loads a workload once for the micro-benchmarks.
func loadBench(b *testing.B, name string) *dacapo.Workload {
	b.Helper()
	bench, err := dacapo.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	w, err := bench.Load(1)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkIAR measures the scheduling algorithm itself (the quantity of
// Table 2), per workload. /warm holds one planner across iterations, the
// steady state of a long-lived caller; /cold builds a fresh planner per
// iteration, so every buffer is sized anew. Each reads a deterministic B/op,
// which the pooled core.IAR wrapper does not: it is warm or cold depending
// on whether a garbage collection emptied the pool.
func BenchmarkIAR(b *testing.B) {
	for _, mode := range []string{"warm", "cold"} {
		for _, name := range []string{"antlr", "eclipse", "lusearch"} {
			b.Run(mode+"/"+name, func(b *testing.B) {
				w := loadBench(b, name)
				opts := core.IAROptions{Model: w.DefaultModel()}
				pl := new(core.IARPlanner)
				if _, err := pl.IAR(w.Trace, w.Profile, opts); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "cold" {
						pl = new(core.IARPlanner)
					}
					if _, err := pl.IAR(w.Trace, w.Profile, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSimReplay measures the make-span framework on a static schedule.
func BenchmarkSimReplay(b *testing.B) {
	w := loadBench(b, "jython")
	sched, err := core.IAR(w.Trace, w.Profile, core.IAROptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(w.Trace, w.Profile, sched, sim.DefaultConfig(), sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJikesPolicy measures the online-policy engine with sampling.
func BenchmarkJikesPolicy(b *testing.B) {
	w := loadBench(b, "jython")
	model := w.DefaultModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, err := policy.NewJikes(model, w.Profile.NumFuncs(), w.Bench.SamplePeriod)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.RunPolicy(w.Trace, w.Profile, pol, sim.DefaultConfig(), sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	reportPerCall(b, w.Trace.Len())
}

// reportPerCall reports the benchmark's time per trace call.
func reportPerCall(b *testing.B, calls int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(calls), "ns/call")
}

// BenchmarkV8Policy measures the online-policy engine under the V8 scheme:
// jython on its two lowest levels, every function promoted at its second
// invocation, so the compile queue holds thousands of recompilations.
func BenchmarkV8Policy(b *testing.B) {
	w := loadBench(b, "jython")
	p2, err := w.Profile.Restrict(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, err := policy.NewV8(1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.RunPolicy(w.Trace, p2, pol, sim.DefaultConfig(), sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	reportPerCall(b, w.Trace.Len())
}

// BenchmarkTraceGen measures the synthetic trace generator.
func BenchmarkTraceGen(b *testing.B) {
	cfg := trace.GenConfig{
		Name: "bench", NumFuncs: 2000, Length: 250000, Seed: 1,
		ZipfS: 1.4, Phases: 5, CoreFuncs: 200, CoreShare: 0.5, BurstMean: 3,
		WarmupFrac: 0.08, WarmupCoverage: 0.8,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLowerBound measures the §5.2 bound computation on a trace whose
// indices are built, where it sums over the memoized call counts; a figure
// row has built them by its second bound, for the model bound and IAR. A
// cold trace takes the per-call sum instead.
func BenchmarkLowerBound(b *testing.B) {
	w := loadBench(b, "pmd")
	w.Trace.Counts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.LowerBound(w.Trace, w.Profile)
	}
	reportPerCall(b, w.Trace.Len())
}

// BenchmarkAStarSearch6 measures A* at the paper's six-function feasibility
// frontier.
func BenchmarkAStarSearch6(b *testing.B) {
	tr, p := experiments.AStarInstance(6, 50, 1006)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := astar.Search(tr, p, astar.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIARAblation quantifies the design choices DESIGN.md calls out:
// each variant's normalized make-span is reported as a metric next to its
// running time. "initOnly" is steps 1-2 disabled down to the bare init
// schedule (equivalently, base-level only).
func BenchmarkIARAblation(b *testing.B) {
	w := loadBench(b, "jython")
	model := w.DefaultModel()
	lb := float64(core.ModelLowerBound(w.Trace, w.Profile, model))
	variants := []struct {
		name string
		opts core.IAROptions
		base bool
	}{
		{"full", core.IAROptions{Model: model}, false},
		{"noFillSlack", core.IAROptions{Model: model, DisableFillSlack: true}, false},
		{"noFillGap", core.IAROptions{Model: model, DisableFillGap: true}, false},
		{"initOnly", core.IAROptions{}, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var sched sim.Schedule
			var err error
			for i := 0; i < b.N; i++ {
				if v.base {
					sched = core.SingleLevelBase(w.Trace)
				} else {
					sched, err = core.IAR(w.Trace, w.Profile, v.opts)
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			res, err := sim.Run(w.Trace, w.Profile, sched, sim.DefaultConfig(), sim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.MakeSpan)/lb, "makespan/LB")
		})
	}
}

// BenchmarkEstimatedModel measures cost-benefit model construction.
func BenchmarkEstimatedModel(b *testing.B) {
	w := loadBench(b, "fop")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile.NewEstimated(w.Profile, profile.DefaultEstimatedConfig(5))
	}
}

// BenchmarkPredictStudy measures the §8 cross-run prediction pipeline on a
// subset of the suite.
func BenchmarkPredictStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PredictStudy(experiments.Options{Benchmarks: []string{"luindex", "antlr"}, Runner: freshRunner()})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].ByTrainRuns[5], "IAR@5runs/LB")
		}
	}
}

// BenchmarkPriorityStudy measures the §7 queue-discipline comparison.
func BenchmarkPriorityStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PriorityStudy(experiments.Options{Benchmarks: []string{"jython"}, Runner: freshRunner()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVariationStudy measures the §8 execution-variation sweep.
func BenchmarkVariationStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.VariationStudy(experiments.Options{Benchmarks: []string{"fop"}, Runner: freshRunner()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreterStudy measures the §8 interpreter-tier study.
func BenchmarkInterpreterStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.InterpreterStudy(experiments.Options{Benchmarks: []string{"luindex"}, Runner: freshRunner()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIDASearch6 measures IDA* at the six-function frontier for
// comparison with BenchmarkAStarSearch6.
func BenchmarkIDASearch6(b *testing.B) {
	tr, p := experiments.AStarInstance(6, 50, 1006)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := astar.IDASearch(tr, p, astar.IDAOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgramCollect measures the call-graph execution walker.
func BenchmarkProgramCollect(b *testing.B) {
	prog, err := program.Generate(program.GenConfig{
		Funcs: 400, Layers: 6, FanOut: 3, LoopMean: 5, BranchProb: 0.6, Seed: 2024,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := program.Collect(prog, program.CollectOptions{MaxCalls: 250000, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictor measures trace prediction from five recorded runs.
func BenchmarkPredictor(b *testing.B) {
	bench, err := dacapo.ByName("antlr")
	if err != nil {
		b.Fatal(err)
	}
	repo := predict.NewRepository()
	for k := 1; k <= 5; k++ {
		w, err := bench.LoadRun(1, k)
		if err != nil {
			b.Fatal(err)
		}
		repo.Add(w.Trace)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repo.Predict(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMTEngine measures the multi-threaded execution engine: four
// threads, shared compile queue, organizer-batched Jikes policy.
func BenchmarkMTEngine(b *testing.B) {
	bench, err := dacapo.ByName("jython")
	if err != nil {
		b.Fatal(err)
	}
	threads, p, err := bench.LoadThreads(1, 4)
	if err != nil {
		b.Fatal(err)
	}
	model := profile.NewEstimated(p, profile.DefaultEstimatedConfig(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, err := policy.NewJikesOrganizer(model, p.NumFuncs(), bench.SamplePeriod/4, bench.SamplePeriod)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sim.RunPolicyMT(threads, p, pol,
			sim.Config{CompileWorkers: 1, Discipline: sim.FirstCompileFirst}, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
