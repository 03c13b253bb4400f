package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dacapo"
	"repro/internal/policy"
	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
)

// PredictRow is one benchmark's outcome in the cross-run prediction study:
// IAR driven by a call sequence *predicted from other runs*, evaluated on an
// unseen run, against the idealized (perfect-trace) IAR and the default
// online scheme.
type PredictRow struct {
	Benchmark string
	// ByTrainRuns maps the number of training runs to the normalized
	// make-span of predicted-IAR on the held-out run.
	ByTrainRuns map[int]float64
	// PerfectIAR is IAR with the held-out run's exact trace (the Fig. 5
	// setting); Default is the online Jikes scheme on the held-out run.
	PerfectIAR float64
	Default    float64
	// Accuracy reports the prediction quality at the largest training-run
	// count.
	Accuracy predict.Accuracy
}

// TrainRunCounts are the training-set sizes the study sweeps.
var TrainRunCounts = []int{1, 3, 5}

// PredictStudy implements the §8 deployment path end to end: record call
// sequences from past runs, predict the next run's sequence, compute an IAR
// schedule from the prediction, install it via the Planned policy (with
// on-demand fallback for mispredicted functions), and measure the held-out
// run. The question is how much of IAR's benefit survives imperfect
// knowledge of the future.
func PredictStudy(opts Options) ([]PredictRow, error) {
	maxTrain := 0
	for _, k := range TrainRunCounts {
		if k > maxTrain {
			maxTrain = k
		}
	}
	return perBench(opts, "cross-run prediction", func(b dacapo.Benchmark, _ runner.Ctx) (PredictRow, error) {
		// The held-out evaluation run is run 0 (the default workload);
		// training runs are 1..maxTrain.
		actual, err := b.Load(opts.scale())
		if err != nil {
			return PredictRow{}, err
		}
		model := actual.DefaultModel()
		lb := float64(core.ModelLowerBound(actual.Trace, actual.Profile, model))
		cfg := sim.DefaultConfig()

		row := PredictRow{Benchmark: b.Name, ByTrainRuns: make(map[int]float64, len(TrainRunCounts))}

		perfectSched, err := core.IAR(actual.Trace, actual.Profile, core.IAROptions{Model: model, K: opts.IARK})
		if err != nil {
			return PredictRow{}, err
		}
		perfectRes, err := sim.Run(actual.Trace, actual.Profile, perfectSched, cfg, sim.Options{})
		if err != nil {
			return PredictRow{}, err
		}
		row.PerfectIAR = float64(perfectRes.MakeSpan) / lb

		jikes, err := policy.NewJikes(model, actual.Profile.NumFuncs(), b.SamplePeriod)
		if err != nil {
			return PredictRow{}, err
		}
		defRes, err := sim.RunPolicy(actual.Trace, actual.Profile, jikes, cfg, sim.Options{})
		if err != nil {
			return PredictRow{}, err
		}
		row.Default = float64(defRes.MakeSpan) / lb

		repo := predict.NewRepository()
		// One planner serves every predicted-trace replan: each schedule is
		// replayed before the next train-run count recycles it.
		pl := new(core.IARPlanner)
		for k := 1; k <= maxTrain; k++ {
			train, err := b.LoadRun(opts.scale(), k)
			if err != nil {
				return PredictRow{}, err
			}
			repo.Add(train.Trace)
			if !containsInt(TrainRunCounts, k) {
				continue
			}
			predicted, err := repo.Predict()
			if err != nil {
				return PredictRow{}, err
			}
			sched, err := pl.IAR(predicted, actual.Profile, core.IAROptions{Model: model, K: opts.IARK})
			if err != nil {
				return PredictRow{}, err
			}
			res, err := sim.RunPolicy(actual.Trace, actual.Profile, policy.NewPlanned(sched), cfg, sim.Options{})
			if err != nil {
				return PredictRow{}, err
			}
			row.ByTrainRuns[k] = float64(res.MakeSpan) / lb
			if k == maxTrain {
				row.Accuracy = predict.Evaluate(predicted, actual.Trace)
			}
		}
		return row, nil
	})
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// RenderPredict writes the cross-run prediction study.
func RenderPredict(rows []PredictRow, w io.Writer) error {
	cols := []string{"benchmark"}
	for _, k := range TrainRunCounts {
		cols = append(cols, fmt.Sprintf("IAR@%d runs", k))
	}
	cols = append(cols, "IAR (perfect)", "default", "coverage", "order agr.")
	t := report.NewTable("Cross-run prediction study (§8): predicted-trace IAR on an unseen run", cols...)
	sums := make([]float64, len(TrainRunCounts))
	var perfSum, defSum float64
	for _, r := range rows {
		cells := []string{r.Benchmark}
		for i, k := range TrainRunCounts {
			cells = append(cells, report.F3(r.ByTrainRuns[k]))
			sums[i] += r.ByTrainRuns[k]
		}
		cells = append(cells, report.F3(r.PerfectIAR), report.F3(r.Default),
			fmt.Sprintf("%.0f%%", r.Accuracy.Coverage*100),
			fmt.Sprintf("%.0f%%", r.Accuracy.FirstOrderAgreement*100))
		t.AddRow(cells...)
		perfSum += r.PerfectIAR
		defSum += r.Default
	}
	if len(rows) > 0 {
		n := float64(len(rows))
		cells := []string{"average"}
		for i := range TrainRunCounts {
			cells = append(cells, report.F3(sums[i]/n))
		}
		cells = append(cells, report.F3(perfSum/n), report.F3(defSum/n), "", "")
		t.AddRow(cells...)
	}
	return t.Render(w)
}
