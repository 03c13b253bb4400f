package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dacapo"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file holds the extension studies the paper motivates but does not
// evaluate itself:
//
//   - PriorityStudy implements the §7 insight that first-time compilations
//     should outrank recompilations in the JIT's queue, and measures how
//     much of the default scheme's gap that one-line policy change recovers.
//   - VariationStudy implements the §8 discussion of per-call execution-time
//     variation, measuring how schedules computed from per-call *averages*
//     hold up when replayed against varying realizations.
//   - KSweep quantifies §5.1's claim that IAR is insensitive to the K
//     constant anywhere in [3,10].
//   - PeriodSweep exposes the sampling-period sensitivity of the default
//     scheme that underlies Fig. 5's gap.

// PriorityRow is one workload's outcome in the queue-discipline study.
type PriorityRow struct {
	Benchmark string
	// FIFO and Priority are the default (Jikes) scheme's normalized
	// make-spans under the two queue disciplines.
	FIFO, Priority float64
	// MaxPending is the deepest the compile queue ever got (FIFO run);
	// FirstBehind counts first-compilation requests that arrived behind a
	// waiting recompilation — the situations the §7 discipline can improve.
	MaxPending  int
	FirstBehind int
	// FIFOBubble and PriorityBubble are total execution-stall ticks under
	// each discipline; the discipline's direct effect is to shrink them.
	FIFOBubble, PriorityBubble int64
}

// PriorityStudy measures the §7 insight — "the first-time compilation of a
// method should generally get a higher priority than recompilations of
// other methods" — by running the (organizer-batched) default Jikes scheme
// with a FIFO compile queue and with a first-compile-first queue.
//
// Two reproduction findings temper the insight. First, with per-sample
// promotion decisions the compile queue *self-regulates*: the Jikes
// cost-benefit threshold spaces recompilation requests at intervals
// comparable to the compilations themselves (both scale with compile cost),
// and a single blocked execution thread stops generating requests, so
// first-compilations essentially never wait behind queued recompilations.
// Second, once the organizer batches decisions and pressure exists, the
// discipline cuts blocking but *delays hot recompilations*, so its net
// effect on trace-driven workloads is modest and benchmark-dependent (the
// paper's own wording is "generally"). SaturationStudy constructs the burst
// regime where the win is clear.
func PriorityStudy(opts Options) ([]PriorityRow, error) {
	return perBench(opts, "queue discipline", func(b dacapo.Benchmark, _ runner.Ctx) (PriorityRow, error) {
		w, err := b.Load(opts.scale())
		if err != nil {
			return PriorityRow{}, err
		}
		model := w.DefaultModel()
		lb := float64(core.ModelLowerBound(w.Trace, w.Profile, model))
		run := func(d sim.QueueDiscipline) (*sim.Result, error) {
			pol, err := policy.NewJikesOrganizer(model, w.Profile.NumFuncs(),
				w.Bench.SamplePeriod, 4*w.Bench.SamplePeriod)
			if err != nil {
				return nil, err
			}
			return sim.RunPolicy(w.Trace, w.Profile, pol,
				sim.Config{CompileWorkers: 1, Discipline: d}, sim.Options{})
		}
		fifo, err := run(sim.FIFO)
		if err != nil {
			return PriorityRow{}, err
		}
		prio, err := run(sim.FirstCompileFirst)
		if err != nil {
			return PriorityRow{}, err
		}
		return PriorityRow{
			Benchmark:      w.Bench.Name,
			FIFO:           float64(fifo.MakeSpan) / lb,
			Priority:       float64(prio.MakeSpan) / lb,
			MaxPending:     fifo.MaxPending,
			FirstBehind:    fifo.FirstBehindRecompiles,
			FIFOBubble:     fifo.TotalBubble,
			PriorityBubble: prio.TotalBubble,
		}, nil
	})
}

// SaturationStudy pushes toward the regime where the §7 discipline should
// matter: a compile-heavy configuration (compilation costs scaled up, as on
// a slow mobile core — the paper's motivating platform) running a
// flat-hotness workload whose functions cross the promotion threshold
// together, so the organizer emits recompilation bursts while new code
// keeps arriving. Even here the measured benefit is small: a blocked
// single-threaded executor generates no further requests, draining the very
// contention the discipline needs (the bubble totals shrink, the make-span
// barely moves). The conclusion of this reproduction is that the §7 insight
// presupposes request sources beyond one execution thread — more
// application threads, or eager batch loading.
func SaturationStudy() ([]PriorityRow, error) {
	organizers := []int64{200000, 800000}
	jobs := make([]runner.Job[PriorityRow], len(organizers))
	for i, organizer := range organizers {
		organizer := organizer
		jobs[i] = runner.Job[PriorityRow]{
			Key: runner.Key{Experiment: "saturation", Detail: fmt.Sprintf("organizer=%d", organizer)},
			Fn: func(_ runner.Ctx) (PriorityRow, error) {
				tr, p, err := saturationWorkload()
				if err != nil {
					return PriorityRow{}, err
				}
				model := profile.NewOracle(p)
				lb := float64(core.ModelLowerBound(tr, p, model))
				row := PriorityRow{Benchmark: fmt.Sprintf("flat-hot/organizer=%dk", organizer/1000)}
				for _, d := range []sim.QueueDiscipline{sim.FIFO, sim.FirstCompileFirst} {
					pol, err := policy.NewJikesOrganizer(model, p.NumFuncs(), 3000, organizer)
					if err != nil {
						return PriorityRow{}, err
					}
					res, err := sim.RunPolicy(tr, p, pol, sim.Config{CompileWorkers: 1, Discipline: d}, sim.Options{})
					if err != nil {
						return PriorityRow{}, err
					}
					if d == sim.FIFO {
						row.FIFO = float64(res.MakeSpan) / lb
						row.MaxPending = res.MaxPending
						row.FirstBehind = res.FirstBehindRecompiles
						row.FIFOBubble = res.TotalBubble
					} else {
						row.Priority = float64(res.MakeSpan) / lb
						row.PriorityBubble = res.TotalBubble
					}
				}
				return row, nil
			},
		}
	}
	return runner.Map(runner.Shared(), jobs)
}

// saturationWorkload builds the flat-hotness, compile-heavy instance used
// by SaturationStudy: 24 *identical* hot functions — same size, same
// per-level times, equal call shares, so their sample counts cross the
// promotion threshold in the same organizer window and the recompilations
// arrive as one burst — plus a steady drip of new cold functions whose
// first compilations land behind that burst. All compilation costs are
// scaled 8x (a slow-to-compile configuration).
func saturationWorkload() (*trace.Trace, *profile.Profile, error) {
	const hot, cold, calls, intro = 24, 4000, 100000, 25
	seq := make([]trace.FuncID, 0, calls)
	nextCold := trace.FuncID(hot)
	for i := 0; i < calls; i++ {
		if i%intro == intro-1 && int(nextCold) < hot+cold {
			// A newly loaded function immediately runs a few times.
			for k := 0; k < 3 && len(seq) < calls; k++ {
				seq = append(seq, nextCold)
			}
			nextCold++
		} else {
			seq = append(seq, trace.FuncID(i%hot))
		}
	}
	p, err := profile.Synthesize(hot+cold, profile.DefaultTiming(4, 77))
	if err != nil {
		return nil, nil, err
	}
	for i := range p.Funcs {
		for l := range p.Funcs[i].Compile {
			p.Funcs[i].Compile[l] *= 8
		}
	}
	// Clone one hot function's timings across the hot set.
	proto := p.Funcs[0]
	for i := 1; i < hot; i++ {
		p.Funcs[i].Size = proto.Size
		copy(p.Funcs[i].Compile, proto.Compile)
		copy(p.Funcs[i].Exec, proto.Exec)
	}
	return trace.New("flat-hot", seq), p, nil
}

// RenderPriority writes a queue-discipline study (PriorityStudy or
// SaturationStudy rows).
func RenderPriority(title string, rows []PriorityRow, w io.Writer) error {
	t := report.NewTable(title,
		"workload", "FIFO", "first-compile-first", "max queue", "firsts behind recompiles")
	var f, p []float64
	for _, r := range rows {
		t.AddRow(r.Benchmark, report.F3(r.FIFO), report.F3(r.Priority),
			fmt.Sprintf("%d", r.MaxPending), fmt.Sprintf("%d", r.FirstBehind))
		f = append(f, r.FIFO)
		p = append(p, r.Priority)
	}
	t.AddRow("average", report.F3(report.Mean(f)), report.F3(report.Mean(p)), "", "")
	return t.Render(w)
}

// VariationRow is one benchmark's outcome in the execution-time-variation
// study: the IAR schedule (computed from averages) replayed against varying
// per-call times, normalized by the lower bound of the same realization.
type VariationRow struct {
	Benchmark string
	// ByMagnitude maps the variation magnitude to IAR's normalized
	// make-span under that realization.
	ByMagnitude map[float64]float64
}

// VariationMagnitudes are the per-call variation levels the study sweeps:
// up to ±60% per call.
var VariationMagnitudes = []float64{0, 0.2, 0.4, 0.6}

// VariationStudy replays average-based IAR schedules against per-call
// execution-time variation (§8). The paper argues the major conclusions
// survive such variation; the study quantifies it: the normalized make-span
// should degrade only mildly with the variation magnitude.
func VariationStudy(opts Options) ([]VariationRow, error) {
	return perBench(opts, "execution-time variation", func(b dacapo.Benchmark, _ runner.Ctx) (VariationRow, error) {
		w, err := b.Load(opts.scale())
		if err != nil {
			return VariationRow{}, err
		}
		model := w.DefaultModel()
		sched, err := core.IAR(w.Trace, w.Profile, core.IAROptions{Model: model, K: opts.IARK})
		if err != nil {
			return VariationRow{}, err
		}
		levels := core.SingleCoreLevels(w.Trace, model)
		row := VariationRow{Benchmark: b.Name, ByMagnitude: make(map[float64]float64, len(VariationMagnitudes))}
		for _, m := range VariationMagnitudes {
			res, err := sim.Run(w.Trace, w.Profile, sched, sim.DefaultConfig(),
				sim.Options{ExecVariation: m, ExecVariationSeed: 99})
			if err != nil {
				return VariationRow{}, err
			}
			lb, err := core.VariedLowerBound(w.Trace, w.Profile, levels, m, 99)
			if err != nil {
				return VariationRow{}, err
			}
			row.ByMagnitude[m] = float64(res.MakeSpan) / float64(lb)
		}
		return row, nil
	})
}

// RenderVariation writes the execution-time-variation study.
func RenderVariation(rows []VariationRow, w io.Writer) error {
	cols := []string{"benchmark"}
	for _, m := range VariationMagnitudes {
		cols = append(cols, fmt.Sprintf("±%.0f%%", m*100))
	}
	t := report.NewTable("Execution-time variation (§8): average-based IAR vs varying realizations", cols...)
	sums := make([]float64, len(VariationMagnitudes))
	for _, r := range rows {
		cells := []string{r.Benchmark}
		for i, m := range VariationMagnitudes {
			cells = append(cells, report.F3(r.ByMagnitude[m]))
			sums[i] += r.ByMagnitude[m]
		}
		t.AddRow(cells...)
	}
	if len(rows) > 0 {
		cells := []string{"average"}
		for i := range VariationMagnitudes {
			cells = append(cells, report.F3(sums[i]/float64(len(rows))))
		}
		t.AddRow(cells...)
	}
	return t.Render(w)
}

// SweepRow is one benchmark's normalized make-span across a swept parameter.
type SweepRow struct {
	Benchmark string
	ByValue   map[int64]float64
}

// KSweep runs IAR across K values and reports normalized make-spans — the
// paper's observation is that anything in [3,10] behaves alike.
func KSweep(opts Options, ks []int64) ([]SweepRow, error) {
	if len(ks) == 0 {
		ks = []int64{1, 3, 5, 8, 10, 20}
	}
	return perBenchDetail(opts, "K sweep", fmt.Sprintf("ks=%v", ks),
		func(b dacapo.Benchmark, _ runner.Ctx) (SweepRow, error) {
			w, err := b.Load(opts.scale())
			if err != nil {
				return SweepRow{}, err
			}
			model := w.DefaultModel()
			lb := float64(core.ModelLowerBound(w.Trace, w.Profile, model))
			row := SweepRow{Benchmark: b.Name, ByValue: make(map[int64]float64, len(ks))}
			// One planner serves the whole sweep: each schedule is simulated
			// before the next K's run recycles it.
			pl := new(core.IARPlanner)
			for _, k := range ks {
				sched, err := pl.IAR(w.Trace, w.Profile, core.IAROptions{Model: model, K: k})
				if err != nil {
					return SweepRow{}, err
				}
				res, err := sim.Run(w.Trace, w.Profile, sched, sim.DefaultConfig(), sim.Options{})
				if err != nil {
					return SweepRow{}, err
				}
				row.ByValue[k] = float64(res.MakeSpan) / lb
			}
			return row, nil
		})
}

// PeriodSweep runs the default Jikes scheme across sampling periods.
func PeriodSweep(opts Options, periods []int64) ([]SweepRow, error) {
	if len(periods) == 0 {
		periods = []int64{50000, 200000, 500000, 2000000}
	}
	return perBenchDetail(opts, "period sweep", fmt.Sprintf("periods=%v", periods),
		func(b dacapo.Benchmark, _ runner.Ctx) (SweepRow, error) {
			w, err := b.Load(opts.scale())
			if err != nil {
				return SweepRow{}, err
			}
			model := w.DefaultModel()
			lb := float64(core.ModelLowerBound(w.Trace, w.Profile, model))
			row := SweepRow{Benchmark: b.Name, ByValue: make(map[int64]float64, len(periods))}
			for _, s := range periods {
				pol, err := policy.NewJikes(model, w.Profile.NumFuncs(), s)
				if err != nil {
					return SweepRow{}, err
				}
				res, err := sim.RunPolicy(w.Trace, w.Profile, pol, sim.DefaultConfig(), sim.Options{})
				if err != nil {
					return SweepRow{}, err
				}
				row.ByValue[s] = float64(res.MakeSpan) / lb
			}
			return row, nil
		})
}

// RenderSweep writes a parameter sweep with the given title and column
// formatter.
func RenderSweep(title string, values []int64, format func(int64) string, rows []SweepRow, w io.Writer) error {
	cols := []string{"benchmark"}
	for _, v := range values {
		cols = append(cols, format(v))
	}
	t := report.NewTable(title, cols...)
	for _, r := range rows {
		cells := []string{r.Benchmark}
		for _, v := range values {
			cells = append(cells, report.F3(r.ByValue[v]))
		}
		t.AddRow(cells...)
	}
	return t.Render(w)
}
