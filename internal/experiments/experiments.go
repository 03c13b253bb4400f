// Package experiments contains one harness per table and figure of the
// paper's evaluation (§6). Each harness returns a structured result and can
// render the same rows/series the paper reports. The workloads come from
// internal/dacapo; the schemes from internal/core and internal/policy; the
// make-spans from internal/sim.
//
// Normalization follows §6.2.1: make-spans are divided by the lower bound —
// the sum of each call's execution time at the deepest level the experiment's
// cost-benefit model would ever build for its function (so the lower-bound
// bar is 1.0 by construction, and an oracle model lowers the bound as §6.2.2
// describes).
//
// # Parallel evaluation
//
// Every harness submits its per-benchmark work as jobs to an internal/runner
// pool (Options.Runner, or the process-wide runner.Shared() by default).
// Results are collected by submission index and each job is a pure function
// of its inputs, so the output — including row order — is byte-identical to a
// serial run; internal/runner's differential tests hold the package to that.
//
// # Golden files
//
// The package's golden tests compare rendered tables against
// testdata/*.txt. Never hand-edit those files; regenerate them with
//
//	go test ./internal/experiments -run TestGolden -update
//
// and review the diff like any other code change.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dacapo"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies each benchmark's default trace length (1.0 if zero).
	Scale float64
	// Benchmarks restricts the run to the named benchmarks (all if empty).
	Benchmarks []string
	// IARK overrides the IAR K constant (5 if zero).
	IARK int64
	// Runner receives the harness's simulation jobs (runner.Shared() if
	// nil). Handing several harnesses one Runner shares its result cache
	// across them.
	Runner *runner.Runner
}

func (o Options) runner() *runner.Runner {
	if o.Runner != nil {
		return o.Runner
	}
	return runner.Shared()
}

// jobKey builds the runner key for one benchmark's slice of an experiment.
// Scale and the IAR K constant are part of the fingerprint because both
// change every simulated number; extra carries any further
// harness-specific parameters (thread counts, sweep values).
func (o Options) jobKey(experiment, benchmark, extra string) runner.Key {
	detail := fmt.Sprintf("K=%d", o.IARK)
	if extra != "" {
		detail += " " + extra
	}
	return runner.Key{
		Experiment: experiment,
		Benchmark:  benchmark,
		Scale:      o.scale(),
		Detail:     detail,
	}
}

// perBench fans fn out over the selected benchmarks — one runner job per
// benchmark — and returns the per-benchmark results in suite order.
func perBench[T any](opts Options, experiment string, fn func(b dacapo.Benchmark, ctx runner.Ctx) (T, error)) ([]T, error) {
	return perBenchDetail(opts, experiment, "", fn)
}

// perBenchDetail is perBench with extra key detail folded into every job's
// fingerprint.
func perBenchDetail[T any](opts Options, experiment, extra string, fn func(b dacapo.Benchmark, ctx runner.Ctx) (T, error)) ([]T, error) {
	bs, err := opts.benchmarks()
	if err != nil {
		return nil, err
	}
	jobs := make([]runner.Job[T], len(bs))
	for i, b := range bs {
		b := b
		jobs[i] = runner.Job[T]{
			Key: opts.jobKey(experiment, b.Name, extra),
			Fn:  func(ctx runner.Ctx) (T, error) { return fn(b, ctx) },
		}
	}
	return runner.Map(opts.runner(), jobs)
}

func (o Options) scale() float64 {
	if o.Scale == 0 {
		return 1
	}
	return o.Scale
}

func (o Options) benchmarks() ([]dacapo.Benchmark, error) {
	if len(o.Benchmarks) == 0 {
		return dacapo.Suite(), nil
	}
	var bs []dacapo.Benchmark
	for _, name := range o.Benchmarks {
		b, err := dacapo.ByName(name)
		if err != nil {
			return nil, err
		}
		bs = append(bs, b)
	}
	return bs, nil
}

// SchemeResult is one scheme's outcome on one benchmark.
type SchemeResult struct {
	// MakeSpan is in ticks; Normalized divides it by the run's lower bound.
	MakeSpan   int64
	Normalized float64
	// Bubble is the normalized total execution-stall time, available for
	// schemes simulated with detail.
	Bubble float64
}

// BenchResult collects every scheme's outcome on one benchmark.
type BenchResult struct {
	Benchmark  string
	LowerBound int64 // ticks; the normalization denominator
	Schemes    map[string]SchemeResult
}

// Scheme names used across the figure experiments, in the paper's legend
// order.
const (
	SchemeLowerBound = "lower-bound"
	SchemeIAR        = "IAR algorithm"
	SchemeDefault    = "default"
	SchemeBaseOnly   = "base-level only"
	SchemeOptOnly    = "optimizing-level only"
	SchemeV8         = "V8 scheme"
)

// FigResult is the outcome of a Fig. 5 / 6 / 8 style experiment: a set of
// schemes' normalized make-spans per benchmark.
type FigResult struct {
	Name    string
	Schemes []string // column order
	Rows    []BenchResult
}

// Averages returns the arithmetic mean of each scheme's normalized
// make-span across benchmarks, keyed by scheme.
func (r *FigResult) Averages() map[string]float64 {
	avg := make(map[string]float64, len(r.Schemes))
	for _, s := range r.Schemes {
		var sum float64
		n := 0
		for _, row := range r.Rows {
			if sr, ok := row.Schemes[s]; ok {
				sum += sr.Normalized
				n++
			}
		}
		if n > 0 {
			avg[s] = sum / float64(n)
		}
	}
	return avg
}

// runSchemes evaluates the standard scheme set on one workload under the
// given cost-benefit model: lower bound, IAR, the default Jikes scheme, and
// the two single-level approximations.
// One sim.Evaluator per job serves every static-schedule simulation of the
// row, so the per-run arenas are allocated once; each Result is reduced to
// scalars (norm) before the next scheme reuses them. Policy-driven schemes
// still go through sim.RunPolicy.
func runSchemes(w *dacapo.Workload, model profile.CostModel, iarK int64) (BenchResult, error) {
	tr, p := w.Trace, w.Profile
	cfg := sim.DefaultConfig()
	row := BenchResult{Benchmark: w.Bench.Name, Schemes: make(map[string]SchemeResult, 5)}
	row.LowerBound = core.ModelLowerBound(tr, p, model)
	if row.LowerBound <= 0 {
		return row, fmt.Errorf("experiments: %s: non-positive lower bound", w.Bench.Name)
	}
	eval, err := sim.NewEvaluator(tr, p)
	if err != nil {
		return row, err
	}
	norm := func(span, bubble int64) SchemeResult {
		return SchemeResult{
			MakeSpan:   span,
			Normalized: float64(span) / float64(row.LowerBound),
			Bubble:     float64(bubble) / float64(row.LowerBound),
		}
	}
	row.Schemes[SchemeLowerBound] = norm(row.LowerBound, 0)

	iarSched, err := core.IAR(tr, p, core.IAROptions{Model: model, K: iarK})
	if err != nil {
		return row, fmt.Errorf("experiments: %s: IAR: %w", w.Bench.Name, err)
	}
	iarRes, err := eval.Run(iarSched, cfg, sim.Options{})
	if err != nil {
		return row, err
	}
	row.Schemes[SchemeIAR] = norm(iarRes.MakeSpan, iarRes.TotalBubble)

	jikes, err := policy.NewJikes(model, p.NumFuncs(), w.Bench.SamplePeriod)
	if err != nil {
		return row, err
	}
	defRes, err := sim.RunPolicy(tr, p, jikes, cfg, sim.Options{})
	if err != nil {
		return row, err
	}
	row.Schemes[SchemeDefault] = norm(defRes.MakeSpan, defRes.TotalBubble)

	baseRes, err := eval.Run(core.SingleLevelBase(tr), cfg, sim.Options{})
	if err != nil {
		return row, err
	}
	row.Schemes[SchemeBaseOnly] = norm(baseRes.MakeSpan, baseRes.TotalBubble)

	optRes, err := eval.Run(core.SingleLevelOptimizing(tr, model), cfg, sim.Options{})
	if err != nil {
		return row, err
	}
	row.Schemes[SchemeOptOnly] = norm(optRes.MakeSpan, optRes.TotalBubble)
	return row, nil
}

// Fig5 reproduces Figure 5: normalized make-spans of the default Jikes RVM
// scheduling scheme, the IAR schedule, and the single-level approximations,
// all under the default (estimated) cost-benefit model.
func Fig5(opts Options) (*FigResult, error) {
	return figureStudy("Figure 5: normalized make-span, default cost-benefit model", opts,
		func(w *dacapo.Workload) profile.CostModel { return w.DefaultModel() })
}

// Fig6 reproduces Figure 6: the same comparison with an oracle cost-benefit
// model. Better level choices lower the bound, widening the default
// scheme's gap while IAR stays tight.
func Fig6(opts Options) (*FigResult, error) {
	return figureStudy("Figure 6: normalized make-span, oracle cost-benefit model", opts,
		func(w *dacapo.Workload) profile.CostModel { return w.Oracle() })
}

func figureStudy(name string, opts Options, modelOf func(*dacapo.Workload) profile.CostModel) (*FigResult, error) {
	rows, err := perBench(opts, name, func(b dacapo.Benchmark, _ runner.Ctx) (BenchResult, error) {
		w, err := b.Load(opts.scale())
		if err != nil {
			return BenchResult{}, err
		}
		return runSchemes(w, modelOf(w), opts.IARK)
	})
	if err != nil {
		return nil, err
	}
	return &FigResult{
		Name:    name,
		Schemes: []string{SchemeLowerBound, SchemeIAR, SchemeDefault, SchemeBaseOnly, SchemeOptOnly},
		Rows:    rows,
	}, nil
}

// Fig8 reproduces Figure 8: the V8 scheduling scheme applied to the Java
// call sequences, with the profile restricted to the lowest two levels
// (V8's low/high pair), compared against IAR, the bounds, and the
// single-level schemes on the same two-level profile.
func Fig8(opts Options) (*FigResult, error) {
	const name = "Figure 8: normalized make-span vs the V8 scheduling scheme (two levels)"
	rows, err := perBench(opts, name, func(b dacapo.Benchmark, _ runner.Ctx) (BenchResult, error) {
		w, err := b.Load(opts.scale())
		if err != nil {
			return BenchResult{}, err
		}
		p2, err := w.TwoLevelProfile()
		if err != nil {
			return BenchResult{}, err
		}
		tr := w.Trace
		model := profile.NewEstimated(p2, profile.DefaultEstimatedConfig(int64(len(b.Name))*37+11))
		cfg := sim.DefaultConfig()

		eval, err := sim.NewEvaluator(tr, p2)
		if err != nil {
			return BenchResult{}, err
		}
		row := BenchResult{Benchmark: b.Name, Schemes: make(map[string]SchemeResult, 5)}
		row.LowerBound = core.ModelLowerBound(tr, p2, model)
		norm := func(span, bubble int64) SchemeResult {
			return SchemeResult{
				MakeSpan:   span,
				Normalized: float64(span) / float64(row.LowerBound),
				Bubble:     float64(bubble) / float64(row.LowerBound),
			}
		}
		row.Schemes[SchemeLowerBound] = norm(row.LowerBound, 0)

		iarSched, err := core.IAR(tr, p2, core.IAROptions{Model: model, K: opts.IARK})
		if err != nil {
			return BenchResult{}, err
		}
		iarRes, err := eval.Run(iarSched, cfg, sim.Options{})
		if err != nil {
			return BenchResult{}, err
		}
		row.Schemes[SchemeIAR] = norm(iarRes.MakeSpan, iarRes.TotalBubble)

		v8, err := policy.NewV8(1)
		if err != nil {
			return BenchResult{}, err
		}
		v8Res, err := sim.RunPolicy(tr, p2, v8, cfg, sim.Options{})
		if err != nil {
			return BenchResult{}, err
		}
		row.Schemes[SchemeV8] = norm(v8Res.MakeSpan, v8Res.TotalBubble)

		baseRes, err := eval.Run(core.SingleLevelBase(tr), cfg, sim.Options{})
		if err != nil {
			return BenchResult{}, err
		}
		row.Schemes[SchemeBaseOnly] = norm(baseRes.MakeSpan, baseRes.TotalBubble)

		optRes, err := eval.Run(core.SingleLevelOptimizing(tr, model), cfg, sim.Options{})
		if err != nil {
			return BenchResult{}, err
		}
		row.Schemes[SchemeOptOnly] = norm(optRes.MakeSpan, optRes.TotalBubble)
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &FigResult{
		Name:    name,
		Schemes: []string{SchemeLowerBound, SchemeIAR, SchemeV8, SchemeBaseOnly, SchemeOptOnly},
		Rows:    rows,
	}, nil
}

// Fig7Row is one benchmark's concurrent-JIT speedups under the IAR schedule.
type Fig7Row struct {
	Benchmark string
	// SpeedupByWorkers maps a compile-worker count to make-span(1 worker) /
	// make-span(n workers).
	SpeedupByWorkers map[int]float64
}

// Fig7Result is the outcome of the Figure 7 experiment.
type Fig7Result struct {
	Workers []int
	Rows    []Fig7Row
}

// Averages returns the mean speedup per worker count.
func (r *Fig7Result) Averages() map[int]float64 {
	avg := make(map[int]float64, len(r.Workers))
	for _, wk := range r.Workers {
		var sum float64
		n := 0
		for _, row := range r.Rows {
			if s, ok := row.SpeedupByWorkers[wk]; ok {
				sum += s
				n++
			}
		}
		if n > 0 {
			avg[wk] = sum / float64(n)
		}
	}
	return avg
}

// Fig7 reproduces Figure 7: the speedup concurrent JIT compilation brings
// when the IAR schedule is used, for 1-16 compilation cores, under the
// default cost-benefit model. The paper's conclusion — gains stay minor once
// the schedule is good — is the expected shape.
func Fig7(opts Options) (*Fig7Result, error) {
	workerCounts := []int{1, 2, 4, 8, 16}
	rows, err := perBench(opts, "Figure 7", func(b dacapo.Benchmark, _ runner.Ctx) (Fig7Row, error) {
		w, err := b.Load(opts.scale())
		if err != nil {
			return Fig7Row{}, err
		}
		model := w.DefaultModel()
		sched, err := core.IAR(w.Trace, w.Profile, core.IAROptions{Model: model, K: opts.IARK})
		if err != nil {
			return Fig7Row{}, err
		}
		eval, err := sim.NewEvaluator(w.Trace, w.Profile)
		if err != nil {
			return Fig7Row{}, err
		}
		row := Fig7Row{Benchmark: b.Name, SpeedupByWorkers: make(map[int]float64, len(workerCounts))}
		// The worker counts stay serial inside the job: each speedup is
		// relative to the same benchmark's 1-worker base, and one evaluator
		// serves the whole sweep.
		var base int64
		for _, workers := range workerCounts {
			r, err := eval.Run(sched, sim.Config{CompileWorkers: workers}, sim.Options{})
			if err != nil {
				return Fig7Row{}, err
			}
			if workers == 1 {
				base = r.MakeSpan
			}
			row.SpeedupByWorkers[workers] = float64(base) / float64(r.MakeSpan)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig7Result{Workers: workerCounts, Rows: rows}, nil
}

// Table1Row is one benchmark's characteristics (Table 1), for both the
// original trace (from the paper) and the generated one.
type Table1Row struct {
	Benchmark      string
	Parallel       bool
	Funcs          int
	FullLength     int
	DefaultSeconds float64
	// Generated-trace properties at the experiment scale:
	GenLength    int
	GenUnique    int
	GenTop10Pct  float64
	SimDefaultMs float64 // simulated default-scheme make-span, ms at 1 tick = 1 µs
}

// Table1 reproduces Table 1, reporting the paper's numbers alongside the
// generated traces' actual shapes.
func Table1(opts Options) ([]Table1Row, error) {
	return perBench(opts, "Table 1", func(b dacapo.Benchmark, _ runner.Ctx) (Table1Row, error) {
		w, err := b.Load(opts.scale())
		if err != nil {
			return Table1Row{}, err
		}
		st := trace.ComputeStats(w.Trace)
		jikes, err := policy.NewJikes(w.DefaultModel(), w.Profile.NumFuncs(), b.SamplePeriod)
		if err != nil {
			return Table1Row{}, err
		}
		defRes, err := sim.RunPolicy(w.Trace, w.Profile, jikes, sim.DefaultConfig(), sim.Options{})
		if err != nil {
			return Table1Row{}, err
		}
		return Table1Row{
			Benchmark:      b.Name,
			Parallel:       b.Parallel,
			Funcs:          b.Funcs,
			FullLength:     b.FullLength,
			DefaultSeconds: b.DefaultSeconds,
			GenLength:      st.Length,
			GenUnique:      st.UniqueFuncs,
			GenTop10Pct:    st.Top10Share * 100,
			SimDefaultMs:   float64(defRes.MakeSpan) / 1000,
		}, nil
	})
}
