package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dacapo"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// corpus-offline: each op is one Fig. 5/6/8 row on one DaCapo entry — the
// §5.2 lower bound, IAR plus its replay, the Jikes and V8 policies, and the
// single-level base and optimizing schedules. A round holds every benchmark
// under both cost models at scale 1 plus every benchmark once at scale 4, so
// two thirds of the ops are small and one third large. The scale-4 entries
// alternate the two models by benchmark, so every seed has the same mix;
// the seed picks each entry's LoadRun input variant and the op order.

// corpusMinOps keeps at least ten ops beyond op_ms_p90.
const corpusMinOps = 100

type corpusEntry struct {
	Bench string  `json:"bench"`
	Model string  `json:"model"`
	Scale float64 `json:"scale"`
	Run   int     `json:"run"`
}

func (e corpusEntry) String() string {
	return fmt.Sprintf("%s/%s/x%g/run%d", e.Bench, e.Model, e.Scale, e.Run)
}

func (e corpusEntry) load() string { return fmt.Sprintf("%s/x%g/run%d", e.Bench, e.Scale, e.Run) }

// corpusRow is one op's output: the make-span of every scheme in ticks.
type corpusRow struct {
	LowerBound      int64 `json:"lower_bound"`
	ModelLowerBound int64 `json:"model_lower_bound"`
	V8LowerBound    int64 `json:"v8_lower_bound"`
	IAR             int64 `json:"iar"`
	Jikes           int64 `json:"jikes"`
	V8              int64 `json:"v8"`
	Base            int64 `json:"base"`
	Opt             int64 `json:"opt"`
}

func corpusScales(tiny bool) (small, large float64) {
	if tiny {
		return 0.01, 0.04
	}
	return 1, 4
}

// corpusEntries draws one round's entries from the seed.
func corpusEntries(seed int64, tiny bool) []corpusEntry {
	rng := rand.New(rand.NewSource(seed))
	small, large := corpusScales(tiny)
	models := []string{"estimated", "oracle"}
	var out []corpusEntry
	for _, b := range dacapo.Names() {
		run := 1 + rng.Intn(1<<20)
		for _, m := range models {
			out = append(out, corpusEntry{Bench: b, Model: m, Scale: small, Run: run})
		}
	}
	for i, b := range dacapo.Names() {
		run := 1 + rng.Intn(1<<20)
		out = append(out, corpusEntry{Bench: b, Model: models[i%2], Scale: large, Run: run})
	}
	return out
}

// loadCorpus generates every input a round needs.
func loadCorpus(entries []corpusEntry, t *tracer) (map[string]*dacapo.Workload, error) {
	ws := make(map[string]*dacapo.Workload)
	for _, e := range entries {
		if ws[e.load()] != nil {
			continue
		}
		b, err := dacapo.ByName(e.Bench)
		if err != nil {
			return nil, err
		}
		s := t.begin("dacapo.load", noSpan, noSpan)
		w, err := b.LoadRun(e.Scale, e.Run)
		t.end(s)
		if err != nil {
			return nil, err
		}
		ws[e.load()] = w
	}
	return ws, nil
}

// corpusOp computes one row through the public API. The trace is re-wrapped
// so its memoized indices start cold, as they do for a user computing one
// row.
func corpusOp(e corpusEntry, w *dacapo.Workload, t *tracer, op int32) (corpusRow, error) {
	root := t.begin("op.corpus", op, noSpan)
	defer t.end(root)
	var row corpusRow
	tr := trace.New(w.Trace.Name, w.Trace.Calls)
	p := w.Profile
	var model profile.CostModel = w.DefaultModel()
	if e.Model == "oracle" {
		model = w.Oracle()
	}
	cfg := sim.DefaultConfig()

	s := t.begin("core.lower_bound", op, root)
	row.LowerBound = core.LowerBound(tr, p)
	row.ModelLowerBound = core.ModelLowerBound(tr, p, model)
	t.end(s)

	s = t.begin("sim.new_evaluator", op, root)
	ev, err := sim.NewEvaluator(tr, p)
	t.end(s)
	if err != nil {
		return row, err
	}
	replay := func(sched sim.Schedule) (int64, error) {
		s := t.begin("sim.run", op, root)
		defer t.end(s)
		res, err := ev.Run(sched, cfg, sim.Options{})
		if err != nil {
			return 0, err
		}
		return res.MakeSpan, nil
	}

	s = t.begin("core.iar", op, root)
	iar, err := core.IAR(tr, p, core.IAROptions{Model: model})
	t.end(s)
	if err != nil {
		return row, fmt.Errorf("iar: %w", err)
	}
	if row.IAR, err = replay(iar); err != nil {
		return row, err
	}

	s = t.begin("policy.jikes", op, root)
	jikes, err := policy.NewJikes(model, p.NumFuncs(), w.Bench.SamplePeriod)
	if err == nil {
		var res *sim.Result
		if res, err = sim.RunPolicy(tr, p, jikes, cfg, sim.Options{}); err == nil {
			row.Jikes = res.MakeSpan
		}
	}
	t.end(s)
	if err != nil {
		return row, fmt.Errorf("jikes: %w", err)
	}

	// Fig. 8: the V8 scheme on the two lowest levels.
	p2, err := p.Restrict(0, 1)
	if err != nil {
		return row, err
	}
	s = t.begin("core.lower_bound", op, root)
	row.V8LowerBound = core.LowerBound(tr, p2)
	t.end(s)
	s = t.begin("policy.v8", op, root)
	v8, err := policy.NewV8(1)
	if err == nil {
		var res *sim.Result
		if res, err = sim.RunPolicy(tr, p2, v8, cfg, sim.Options{}); err == nil {
			row.V8 = res.MakeSpan
		}
	}
	t.end(s)
	if err != nil {
		return row, fmt.Errorf("v8: %w", err)
	}

	if row.Base, err = replay(core.SingleLevelBase(tr)); err != nil {
		return row, err
	}
	if row.Opt, err = replay(core.SingleLevelOptimizing(tr, model)); err != nil {
		return row, err
	}
	return row, nil
}

// checkCorpusRow checks the §5.2 invariant on every scheme.
func checkCorpusRow(row corpusRow) error {
	if row.LowerBound <= 0 || row.ModelLowerBound <= 0 || row.V8LowerBound <= 0 {
		return fmt.Errorf("non-positive lower bound %+v", row)
	}
	for name, ms := range map[string]int64{"iar": row.IAR, "jikes": row.Jikes, "base": row.Base, "opt": row.Opt} {
		if ms < row.LowerBound {
			return fmt.Errorf("%s make-span %d below the lower bound %d", name, ms, row.LowerBound)
		}
	}
	if row.V8 < row.V8LowerBound {
		return fmt.Errorf("v8 make-span %d below the two-level lower bound %d", row.V8, row.V8LowerBound)
	}
	return nil
}

func runCorpus(cfg config, t *tracer) (*report, error) {
	rep := newReport()
	entries := corpusEntries(cfg.Seed, cfg.Tiny)
	var ws map[string]*dacapo.Workload
	t.on = cfg.Trace
	setup, err := timeSetup(func() (err error) {
		ws, err = loadCorpus(entries, t)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.E2E["setup_s"] = setup
	pinned := cfg.Expect.corpusPins(cfg.Seed)

	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	seen := make(map[string]corpusRow)
	byEntry := make(map[string][]float64)
	var untraced, traced, gaps, rates []float64
	iar0, eval0 := core.ReadIARStats(), sim.ReadEvalStats()
	start := time.Now()
	for round := 0; ; round++ {
		// A traced run alternates untraced and traced rounds of the same
		// entries, so the tracing overhead is measured on equal work; its
		// first round only warms up.
		t.on = cfg.Trace && round%2 == 1
		var busy time.Duration
		for _, i := range rng.Perm(len(entries)) {
			e := entries[i]
			op := int32(rep.Attempted)
			rep.Attempted++
			rep.sampleHost()
			c0 := cpuTime()
			row, err := corpusOp(e, ws[e.load()], t, op)
			d := cpuTime() - c0
			if err := rep.sampleRSS(); err != nil {
				return nil, err
			}
			busy += d
			if t.on {
				traced = append(traced, float64(d.Nanoseconds())/1e6)
			} else if !cfg.Trace || round > 0 {
				untraced = append(untraced, float64(d.Nanoseconds())/1e6)
				byEntry[e.String()] = append(byEntry[e.String()], float64(d.Nanoseconds())/1e6)
			}
			if err != nil {
				rep.fail("%s: %v", e, err)
				continue
			}
			if err := checkCorpusRow(row); err != nil {
				rep.fail("%s: %v", e, err)
				continue
			}
			if want, ok := pinned[e.String()]; ok && want != row {
				rep.fail("%s: row %+v differs from the pinned %+v", e, row, want)
				continue
			}
			if first, ok := seen[e.String()]; ok && first != row {
				rep.fail("%s: row %+v differs from this run's earlier %+v", e, row, first)
				continue
			}
			seen[e.String()] = row
			gaps = append(gaps, float64(row.IAR)/float64(row.LowerBound))
		}
		if !t.on {
			rates = append(rates, float64(len(entries))/busy.Seconds())
		}
		enough := time.Since(start).Seconds() >= cfg.Seconds && rep.Attempted >= corpusMinOps
		if enough && (!cfg.Trace || round >= 2) {
			break
		}
	}
	t.on = cfg.Trace
	if n := len(pinned); n > 0 && n != len(entries) {
		rep.fail("pinned references cover %d of %d entries", n, len(entries))
	}

	// Every round does the same work, so the median round rate discounts a
	// round the machine slowed down.
	rep.E2E["ops_per_s"] = median(rates)
	// The p50 is taken over each entry's median op time: an entry's time
	// varies little between rounds, while which entry sits at the middle of
	// the mixed-size round decides the p50.
	var perEntry []float64
	for _, ds := range byEntry {
		perEntry = append(perEntry, median(ds))
	}
	rep.E2E["op_ms_p50"] = median(perEntry)
	rep.E2E["op_ms_p90"] = quantile(append([]float64(nil), untraced...), 0.9)
	rep.E2E["makespan_gap"] = geomean(gaps)
	if cfg.Trace {
		iar1, eval1 := core.ReadIARStats(), sim.ReadEvalStats()
		l := t.layers()
		rep.Layer["core.iar_ms"] = l["core.iar"].selfMS()
		rep.Layer["core.iar_alloc_kb"] = l["core.iar"].allocKB()
		rep.Layer["core.iar_warm_ratio"] = ratio(float64(iar1.WarmRuns-iar0.WarmRuns), float64(iar1.Runs-iar0.Runs))
		rep.Layer["core.lower_bound_ms"] = l["core.lower_bound"].selfMS()
		rep.Layer["sim.run_ms"] = l["sim.run"].selfMS()
		rep.Layer["sim.run_alloc_kb"] = l["sim.run"].allocKB()
		fast, full := eval1.DeltaFast-eval0.DeltaFast, eval1.DeltaFull-eval0.DeltaFull
		rep.Layer["sim.delta_fast_ratio"] = ratio(float64(fast), float64(fast+full))
		rep.Layer["policy.jikes_ms"] = l["policy.jikes"].selfMS()
		rep.Layer["policy.v8_ms"] = l["policy.v8"].selfMS()
		rep.Layer["dacapo.load_ms"] = l["dacapo.load"].selfMS()
		rep.Layer["trace.overhead_frac"] = mean(traced)/mean(untraced) - 1
	}
	return rep, rep.finish()
}
