package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/astar"
	"repro/internal/core"
	"repro/internal/dacapo"
	"repro/internal/exact"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// loadWorkload resolves the -bench/-scale pair shared by the tool commands.
func loadWorkload(bench string, scale float64) (*dacapo.Workload, error) {
	if bench == "" {
		return nil, fmt.Errorf("missing -bench (one of %s)", strings.Join(dacapo.Names(), ", "))
	}
	b, err := dacapo.ByName(bench)
	if err != nil {
		return nil, err
	}
	return b.Load(scale)
}

// resolveWorkload loads either a named synthetic benchmark or a user-supplied
// trace + profile pair — the bring-your-own-measurements path (the paper's
// own evaluation consumes exactly such collected data).
func resolveWorkload(bench string, scale float64, tracePath, profilePath string) (*dacapo.Workload, error) {
	custom := tracePath != "" || profilePath != ""
	if custom {
		if bench != "" {
			return nil, fmt.Errorf("use either -bench or -trace/-profile, not both")
		}
		if tracePath == "" || profilePath == "" {
			return nil, fmt.Errorf("custom input needs both -trace and -profile")
		}
		tf, err := os.Open(tracePath)
		if err != nil {
			return nil, err
		}
		defer tf.Close()
		tr, err := trace.ReadBinary(tf)
		if err != nil {
			if _, serr := tf.Seek(0, 0); serr != nil {
				return nil, serr
			}
			tr, err = trace.ReadText(tf)
			if err != nil {
				return nil, fmt.Errorf("%s is not a trace file: %w", tracePath, err)
			}
		}
		pf, err := os.Open(profilePath)
		if err != nil {
			return nil, err
		}
		defer pf.Close()
		p, err := profile.ReadText(pf)
		if err != nil {
			return nil, err
		}
		if err := tr.Validate(p.NumFuncs()); err != nil {
			return nil, fmt.Errorf("trace references functions beyond the profile: %w", err)
		}
		name := tr.Name
		if name == "" {
			name = "custom"
		}
		return &dacapo.Workload{
			Bench:   dacapo.Benchmark{Name: name, Funcs: p.NumFuncs(), SamplePeriod: 400000},
			Trace:   tr,
			Profile: p,
		}, nil
	}
	return loadWorkload(bench, scale)
}

// cmdGen writes a generated benchmark trace to a file.
func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	bench := fs.String("bench", "", "benchmark name")
	scale := fs.Float64("scale", 1.0, "trace length multiplier")
	out := fs.String("o", "", "output file (default: <bench>.trace)")
	format := fs.String("format", "binary", "binary or text")
	profileOut := fs.String("profile-out", "", "also write the timing profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := loadWorkload(*bench, *scale)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = *bench + ".trace"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch *format {
	case "binary":
		err = trace.WriteBinary(f, w.Trace)
	case "text":
		err = trace.WriteText(f, w.Trace)
	default:
		return fmt.Errorf("gen: unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d calls, %d functions\n", path, w.Trace.Len(), w.Trace.UniqueFuncs())
	if *profileOut != "" {
		pf, err := os.Create(*profileOut)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := profile.WriteText(pf, w.Profile); err != nil {
			return err
		}
		if err := pf.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d functions, %d levels\n", *profileOut, w.Profile.NumFuncs(), w.Profile.Levels)
	}
	return nil
}

// cmdStats summarizes a trace file.
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("i", "", "trace file (binary or text)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("stats: missing -i FILE")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.ReadBinary(f)
	if err != nil {
		// Retry as text.
		if _, serr := f.Seek(0, 0); serr != nil {
			return serr
		}
		tr, err = trace.ReadText(f)
		if err != nil {
			return fmt.Errorf("stats: not a trace file: %w", err)
		}
	}
	st := trace.ComputeStats(tr)
	t := report.NewTable("", "trace", "calls", "unique funcs", "max count", "median count", "top-10 share")
	t.AddRow(st.Name, fmt.Sprint(st.Length), fmt.Sprint(st.UniqueFuncs),
		fmt.Sprint(st.MaxCount), fmt.Sprint(st.MedianCount), fmt.Sprintf("%.1f%%", st.Top10Share*100))
	return t.Render(os.Stdout)
}

// buildSchedule produces the requested schedule for a workload.
func buildSchedule(w *dacapo.Workload, algo, modelName string) (sim.Schedule, profile.CostModel, error) {
	var model profile.CostModel
	switch modelName {
	case "default":
		model = w.DefaultModel()
	case "oracle":
		model = w.Oracle()
	default:
		return nil, nil, fmt.Errorf("unknown model %q (default|oracle)", modelName)
	}
	switch algo {
	case "iar":
		s, err := core.IAR(w.Trace, w.Profile, core.IAROptions{Model: model})
		return s, model, err
	case "base":
		return core.SingleLevelBase(w.Trace), model, nil
	case "opt":
		return core.SingleLevelOptimizing(w.Trace, model), model, nil
	case "bnb":
		// The exact branch-and-bound search: provably optimal, but only
		// feasible on small instances (roughly a dozen unique functions).
		res, err := astar.BnBSearch(w.Trace, w.Profile, astar.BnBOptions{})
		if err != nil {
			return nil, nil, fmt.Errorf("bnb: %w (exact search needs a small instance; try -scale or a custom -trace)", err)
		}
		return res.Schedule, model, nil
	case "exact":
		// The threshold-escalation optimality oracle: same feasibility range
		// as bnb, with a certificate that nothing cheaper exists.
		res, err := exact.Solve(w.Trace, w.Profile, exact.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("exact: %w (the oracle needs a small instance; try -scale or a custom -trace)", err)
		}
		return res.Schedule, model, nil
	default:
		return nil, nil, fmt.Errorf("unknown algorithm %q (iar|base|opt|bnb|exact)", algo)
	}
}

// cmdSchedule prints a compilation schedule, or writes it as an advice file
// (Jikes RVM replay mode, §6.1) with -advice.
func cmdSchedule(args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	bench := fs.String("bench", "", "benchmark name")
	scale := fs.Float64("scale", 1.0, "trace length multiplier")
	algo := fs.String("algo", "iar", "iar, base, opt, bnb, or exact (the optimal searches need small instances)")
	modelName := fs.String("model", "default", "cost-benefit model: default or oracle")
	limit := fs.Int("n", 40, "print at most n events (0 = all)")
	advice := fs.String("advice", "", "write the schedule as an advice file instead of printing")
	tracePath := fs.String("trace", "", "custom input: trace file (with -profile)")
	profilePath := fs.String("profile", "", "custom input: profile file (with -trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := resolveWorkload(*bench, *scale, *tracePath, *profilePath)
	if err != nil {
		return err
	}
	sched, _, err := buildSchedule(w, *algo, *modelName)
	if err != nil {
		return err
	}
	if *advice != "" {
		f, err := os.Create(*advice)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := core.WriteAdvice(f, w.Bench.Name, sched, w.Profile); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d compilation events\n", *advice, len(sched))
		return nil
	}
	fmt.Printf("# %s schedule for %s: %d events, total compile time %d ticks\n",
		*algo, w.Bench.Name, len(sched), sched.TotalCompileTime(w.Profile))
	for i, ev := range sched {
		if *limit > 0 && i >= *limit {
			fmt.Printf("... (%d more events)\n", len(sched)-i)
			break
		}
		fmt.Printf("C%d(%s)\n", ev.Level, w.Profile.Funcs[ev.Func].Name)
	}
	return nil
}

// cmdSimulate runs a schedule or online policy and reports the make-span.
func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	bench := fs.String("bench", "", "benchmark name")
	scale := fs.Float64("scale", 1.0, "trace length multiplier")
	algo := fs.String("algo", "iar", "iar, base, opt, bnb, exact, jikes, or v8")
	modelName := fs.String("model", "default", "cost-benefit model: default or oracle")
	workers := fs.Int("workers", 1, "compilation workers (cores)")
	advice := fs.String("advice", "", "replay a schedule from an advice file instead of -algo")
	tracePath := fs.String("trace", "", "custom input: trace file (with -profile)")
	profilePath := fs.String("profile", "", "custom input: profile file (with -trace)")
	timeline := fs.Bool("timeline", false, "print an ASCII timeline of the run (compile lanes + execution)")
	traceOut := fs.String("trace-out", "", "write the run as Chrome trace_event JSON (load in chrome://tracing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := resolveWorkload(*bench, *scale, *tracePath, *profilePath)
	if err != nil {
		return err
	}
	cfg := sim.Config{CompileWorkers: *workers}

	// Both exporters replay the same recorded event stream; recording is off
	// unless one of them asked for it.
	opts := sim.Options{}
	var rec *obs.Recorder
	if *timeline || *traceOut != "" {
		rec = obs.NewRecorder()
		opts.Recorder = rec
	}
	funcName := func(f int32) string { return w.Profile.Funcs[f].Name }
	emitObs := func(res *sim.Result) error {
		obs.Default().SimRun(res.MakeSpan)
		if rec == nil {
			return nil
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			defer f.Close()
			err = obs.WriteChromeTrace(f, rec.Events(), obs.ChromeOptions{
				FuncName: funcName, Process: "jitsched " + w.Bench.Name,
			})
			if err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s: %d events (open in chrome://tracing or ui.perfetto.dev)\n",
				*traceOut, rec.Len())
		}
		if *timeline {
			return obs.WriteTimeline(os.Stdout, rec.Events(), obs.TimelineOptions{FuncName: funcName})
		}
		return nil
	}

	if *advice != "" {
		f, err := os.Open(*advice)
		if err != nil {
			return err
		}
		defer f.Close()
		sched, label, err := core.ReadAdvice(f)
		if err != nil {
			return err
		}
		res, err := sim.Run(w.Trace, w.Profile, sched, cfg, opts)
		if err != nil {
			return err
		}
		fmt.Printf("replayed advice %q (%d events)\nmake-span: %d ticks (bubbles %d)\n",
			label, len(sched), res.MakeSpan, res.TotalBubble)
		return emitObs(res)
	}

	var res *sim.Result
	switch *algo {
	case "jikes":
		var model profile.CostModel
		if *modelName == "oracle" {
			model = w.Oracle()
		} else {
			model = w.DefaultModel()
		}
		pol, err := policy.NewJikes(model, w.Profile.NumFuncs(), w.Bench.SamplePeriod)
		if err != nil {
			return err
		}
		res, err = sim.RunPolicy(w.Trace, w.Profile, pol, cfg, opts)
		if err != nil {
			return err
		}
	case "v8":
		p2, err := w.TwoLevelProfile()
		if err != nil {
			return err
		}
		pol, err := policy.NewV8(1)
		if err != nil {
			return err
		}
		res, err = sim.RunPolicy(w.Trace, p2, pol, cfg, opts)
		if err != nil {
			return err
		}
		lb := core.ModelLowerBound(w.Trace, p2, profile.NewOracle(p2))
		fmt.Printf("note: V8 runs on the two lowest levels; two-level lower bound = %d ticks\n", lb)
	default:
		sched, model, err := buildSchedule(w, *algo, *modelName)
		if err != nil {
			return err
		}
		res, err = sim.Run(w.Trace, w.Profile, sched, cfg, opts)
		if err != nil {
			return err
		}
		lb := core.ModelLowerBound(w.Trace, w.Profile, model)
		fmt.Printf("lower bound: %d ticks (normalized make-span %.3f)\n",
			lb, float64(res.MakeSpan)/float64(lb))
	}
	fmt.Printf("make-span: %d ticks\nexecution: %d ticks\nbubbles:   %d ticks over %d stalls\ncompiles:  %d events, busy %d ticks, done at %d\n",
		res.MakeSpan, res.TotalExec, res.TotalBubble, res.BubbleCount,
		len(res.Compiles), res.CompileBusy, res.CompileEnd)
	return emitObs(res)
}
