package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/dacapo"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Table2Row reports the IAR algorithm's own running time on one benchmark —
// the overhead study of Table 2. The algorithm runs on the host machine; the
// "whole program time" it is compared against is the simulated IAR make-span
// read as wall time at one tick per microsecond, the same convention the
// tick unit is designed around.
type Table2Row struct {
	Benchmark string
	// IARSeconds is the measured wall time of one IAR invocation.
	IARSeconds float64
	// ProgramSeconds is the simulated make-span in seconds (ticks / 1e6).
	ProgramSeconds float64
	// Percent is IARSeconds / ProgramSeconds * 100.
	Percent float64
}

// Table2 reproduces Table 2: the IAR algorithm's time overhead relative to
// program execution time. The paper reports sub-1% overheads for most
// benchmarks; the linear-time algorithm should land in the same regime here.
//
// Unlike the other harnesses, Table 2 measures host wall time, so when the
// runner fans the benchmarks out its timings reflect concurrent load; the
// reported percentages stay indicative, not golden-testable.
func Table2(opts Options) ([]Table2Row, error) {
	return perBench(opts, "Table 2", func(b dacapo.Benchmark, _ runner.Ctx) (Table2Row, error) {
		w, err := b.Load(opts.scale())
		if err != nil {
			return Table2Row{}, err
		}
		model := w.DefaultModel()

		// Warm once (page in code paths; the owned copy survives the timed
		// planner runs below), then time warm runs on one held planner — the
		// allocation-free fast path a runtime replanner would sit on.
		sched, err := core.IAR(w.Trace, w.Profile, core.IAROptions{Model: model, K: opts.IARK})
		if err != nil {
			return Table2Row{}, err
		}
		pl := new(core.IARPlanner)
		if _, err := pl.IAR(w.Trace, w.Profile, core.IAROptions{Model: model, K: opts.IARK}); err != nil {
			return Table2Row{}, err
		}
		const reps = 3
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := pl.IAR(w.Trace, w.Profile, core.IAROptions{Model: model, K: opts.IARK}); err != nil {
				return Table2Row{}, err
			}
		}
		iarSec := time.Since(start).Seconds() / reps

		res, err := sim.Run(w.Trace, w.Profile, sched, sim.DefaultConfig(), sim.Options{})
		if err != nil {
			return Table2Row{}, err
		}
		progSec := float64(res.MakeSpan) / 1e6
		row := Table2Row{
			Benchmark:      b.Name,
			IARSeconds:     iarSec,
			ProgramSeconds: progSec,
		}
		if progSec > 0 {
			row.Percent = iarSec / progSec * 100
		}
		return row, nil
	})
}
