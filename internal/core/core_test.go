package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/testkit"
	"repro/internal/trace"
)

func testWorkload(seed int64) (*trace.Trace, *profile.Profile) {
	// A realistic regime: many functions, most of them cold, a hot core —
	// the shape of the paper's DaCapo traces (Table 1).
	tr := testkit.Gen(trace.GenConfig{
		Name: "wl", NumFuncs: 400, Length: 100000, Seed: seed,
		ZipfS: 1.5, Phases: 4, CoreFuncs: 40, CoreShare: 0.45, BurstMean: 3,
	})
	p := testkit.Synth(400, profile.DefaultTiming(4, seed+1))
	return tr, p
}

func TestLowerBound(t *testing.T) {
	p := &profile.Profile{
		Levels: 2,
		Funcs: []profile.FuncTimes{
			{Compile: []int64{1, 5}, Exec: []int64{10, 4}},
			{Compile: []int64{2, 6}, Exec: []int64{20, 9}},
		},
	}
	tr := trace.New("t", []trace.FuncID{0, 1, 0})
	if got := LowerBound(tr, p); got != 4+9+4 {
		t.Errorf("LowerBound = %d, want 17", got)
	}
	if got := LowerBound(trace.New("e", nil), p); got != 0 {
		t.Errorf("LowerBound(empty) = %d, want 0", got)
	}
}

// TestLowerBoundHolds: no schedule we can construct beats the lower bound.
func TestLowerBoundHolds(t *testing.T) {
	tr, p := testWorkload(3)
	lb := LowerBound(tr, p)
	model := profile.NewOracle(p)
	schedules := map[string]Schedule{
		"base":  SingleLevelBase(tr),
		"opt":   SingleLevelOptimizing(tr, model),
		"mixed": append(SingleLevelBase(tr), SingleLevelOptimizing(tr, model)...),
	}
	iar, err := IAR(tr, p, IAROptions{})
	if err != nil {
		t.Fatalf("IAR: %v", err)
	}
	schedules["iar"] = iar
	for name, s := range schedules {
		for _, w := range []int{1, 4} {
			res, err := sim.Run(tr, p, s, sim.Config{CompileWorkers: w}, sim.Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.MakeSpan < lb {
				t.Errorf("%s with %d workers: make-span %d beats lower bound %d", name, w, res.MakeSpan, lb)
			}
		}
	}
}

func TestSingleLevelBase(t *testing.T) {
	tr := trace.New("t", []trace.FuncID{2, 0, 2, 1})
	s := SingleLevelBase(tr)
	want := Schedule{{Func: 2, Level: 0}, {Func: 0, Level: 0}, {Func: 1, Level: 0}}
	if len(s) != len(want) {
		t.Fatalf("schedule length %d, want %d", len(s), len(want))
	}
	for i := range want {
		if s[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestSingleLevelOptimizingUsesModel(t *testing.T) {
	p := &profile.Profile{
		Levels: 3,
		Funcs: []profile.FuncTimes{
			// level 1 is the cheapest optimizing choice for one call
			{Compile: []int64{1, 10, 500}, Exec: []int64{100, 50, 40}},
			// level 2 pays off over two calls: 10+2*50=110 vs 40+2*1=42
			{Compile: []int64{1, 10, 40}, Exec: []int64{100, 50, 1}},
		},
	}
	tr := trace.New("t", []trace.FuncID{0, 1, 1})
	s := SingleLevelOptimizing(tr, profile.NewOracle(p))
	if s[0].Level != 1 {
		t.Errorf("func 0 scheduled at level %d, want 1 (never the base level)", s[0].Level)
	}
	if s[1].Level != 2 {
		t.Errorf("func 1 scheduled at level %d, want 2", s[1].Level)
	}

	// Single-level profiles degenerate to level 0.
	p1 := &profile.Profile{Levels: 1, Funcs: []profile.FuncTimes{
		{Compile: []int64{1}, Exec: []int64{10}},
	}}
	s1 := SingleLevelOptimizing(trace.New("t", []trace.FuncID{0}), profile.NewOracle(p1))
	if s1[0].Level != 0 {
		t.Errorf("single-level profile scheduled at %d, want 0", s1[0].Level)
	}
}

func TestModelLowerBound(t *testing.T) {
	p := &profile.Profile{
		Levels: 2,
		Funcs: []profile.FuncTimes{
			// cost-effective for 1 call: level 0 (1+10 < 100+4)
			{Compile: []int64{1, 100}, Exec: []int64{10, 4}},
			// cost-effective for 2 calls: level 1 (5+2*2 < 1+2*20)
			{Compile: []int64{1, 5}, Exec: []int64{20, 2}},
		},
	}
	tr := trace.New("t", []trace.FuncID{0, 1, 1})
	got := ModelLowerBound(tr, p, profile.NewOracle(p))
	if want := int64(10 + 2 + 2); got != want {
		t.Errorf("ModelLowerBound = %d, want %d", got, want)
	}
	pure := LowerBound(tr, p)
	if pure > got {
		t.Errorf("pure lower bound %d exceeds model lower bound %d", pure, got)
	}

	if _, err := LowerBoundAtLevels(tr, p, nil); err == nil {
		t.Error("want error for missing levels")
	}
	if _, err := LowerBoundAtLevels(tr, p, []profile.Level{0, 9}); err == nil {
		t.Error("want error for out-of-range level")
	}
}

// TestTheorem1 checks the single-core optimality claim: the most
// cost-effective per-function levels minimize the single-core make-span over
// random alternative level assignments.
func TestTheorem1(t *testing.T) {
	tr, p := testWorkload(5)
	opt := OptimalSingleCoreMakeSpan(tr, p)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		levels := make([]profile.Level, p.NumFuncs())
		for i := range levels {
			levels[i] = profile.Level(rng.Intn(p.Levels))
		}
		span, err := SingleCoreMakeSpan(tr, p, levels)
		if err != nil {
			t.Fatal(err)
		}
		if span < opt {
			t.Fatalf("trial %d: random levels give %d < claimed optimum %d", trial, span, opt)
		}
	}
}

func TestSingleCoreMakeSpanErrors(t *testing.T) {
	tr, p := testWorkload(6)
	if _, err := SingleCoreMakeSpan(tr, p, nil); err == nil {
		t.Error("want error for missing levels")
	}
	levels := make([]profile.Level, p.NumFuncs())
	levels[0] = 99
	if _, err := SingleCoreMakeSpan(tr, p, levels); err == nil {
		t.Error("want error for out-of-range level")
	}
}

func TestIARValidAndEffective(t *testing.T) {
	tr, p := testWorkload(7)
	s, err := IAR(tr, p, IAROptions{})
	if err != nil {
		t.Fatalf("IAR: %v", err)
	}
	if err := s.Validate(tr, p); err != nil {
		t.Fatalf("IAR schedule invalid: %v", err)
	}
	cfg := sim.DefaultConfig()
	iarRes, err := sim.Run(tr, p, s, cfg, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := sim.Run(tr, p, SingleLevelBase(tr), cfg, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	optRes, err := sim.Run(tr, p, SingleLevelOptimizing(tr, profile.NewOracle(p)), cfg, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if iarRes.MakeSpan > baseRes.MakeSpan {
		t.Errorf("IAR (%d) worse than base-level-only (%d)", iarRes.MakeSpan, baseRes.MakeSpan)
	}
	if iarRes.MakeSpan > optRes.MakeSpan {
		t.Errorf("IAR (%d) worse than optimizing-level-only (%d)", iarRes.MakeSpan, optRes.MakeSpan)
	}
	lb := LowerBound(tr, p)
	if iarRes.MakeSpan < lb {
		t.Errorf("IAR make-span %d beats lower bound %d", iarRes.MakeSpan, lb)
	}
	// The paper reports IAR within 17%% of the (model-restricted) lower
	// bound on every benchmark; we allow a looser 30%% sanity margin here
	// (this is a correctness test, not the Fig. 5 reproduction).
	mlb := ModelLowerBound(tr, p, profile.NewOracle(p))
	if float64(iarRes.MakeSpan) > 1.3*float64(mlb) {
		t.Errorf("IAR make-span %d is more than 1.3x the model lower bound %d", iarRes.MakeSpan, mlb)
	}
}

// TestIARStepsHelp: disabling steps 3/4 must never beat the full algorithm.
func TestIARStepsHelp(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		tr, p := testWorkload(seed)
		cfg := sim.DefaultConfig()
		span := func(opts IAROptions) int64 {
			s, err := IAR(tr, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(tr, p, s, cfg, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return res.MakeSpan
		}
		full := span(IAROptions{})
		noSlack := span(IAROptions{DisableFillSlack: true})
		noGap := span(IAROptions{DisableFillGap: true})
		if full > noSlack {
			t.Errorf("seed %d: fill-slack step hurt: %d > %d", seed, full, noSlack)
		}
		if full > noGap {
			t.Errorf("seed %d: fill-gap step hurt: %d > %d", seed, full, noGap)
		}
	}
}

// TestIARKInsensitive mirrors the paper's observation that K anywhere in
// [3,10] gives similar results: make-spans across that range must stay
// within a few percent of each other.
func TestIARKInsensitive(t *testing.T) {
	tr, p := testWorkload(9)
	cfg := sim.DefaultConfig()
	var spans []int64
	for _, k := range []int64{3, 5, 8, 10} {
		s, err := IAR(tr, p, IAROptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(tr, p, s, cfg, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, res.MakeSpan)
	}
	min, max := spans[0], spans[0]
	for _, s := range spans[1:] {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if float64(max) > 1.10*float64(min) {
		t.Errorf("K sensitivity too high: spans %v vary more than 10%%", spans)
	}
}

func TestIAREdgeCases(t *testing.T) {
	p := testkit.Synth(4, profile.DefaultTiming(4, 2))

	s, err := IAR(trace.New("empty", nil), p, IAROptions{})
	if err != nil {
		t.Fatalf("IAR(empty): %v", err)
	}
	if len(s) != 0 {
		t.Errorf("IAR(empty) produced %d events, want 0", len(s))
	}

	one := trace.New("one", []trace.FuncID{2})
	s, err = IAR(one, p, IAROptions{})
	if err != nil {
		t.Fatalf("IAR(one): %v", err)
	}
	if err := s.Validate(one, p); err != nil {
		t.Errorf("IAR(one) invalid: %v", err)
	}

	if _, err := IAR(trace.New("bad", []trace.FuncID{99}), p, IAROptions{}); err == nil {
		t.Error("want error for out-of-range function id")
	}
	if _, err := IAR(one, p, IAROptions{K: -1}); err == nil {
		t.Error("want error for negative K")
	}
}

// TestClassifyIAR builds functions with known destinies.
func TestClassifyIAR(t *testing.T) {
	p := &profile.Profile{
		Levels: 2,
		Funcs: []profile.FuncTimes{
			// f0: huge low-level compile stretches the init-compile phase;
			// level 1 never pays off for its single call -> Other.
			{Compile: []int64{10000, 10001}, Exec: []int64{10, 10}},
			// f1: called 200 times while f0 is still compiling; its cheap
			// recompilation pays for itself within those calls -> Replace.
			{Compile: []int64{1, 4}, Exec: []int64{50, 1}},
			// f2: benefits overall, but all its calls happen after the init
			// compile phase, so the huge recompilation would only add
			// bubbles up front -> Append.
			{Compile: []int64{1, 5000}, Exec: []int64{40, 1}},
		},
	}
	calls := make([]trace.FuncID, 0, 402)
	for i := 0; i < 200; i++ {
		calls = append(calls, 1)
	}
	calls = append(calls, 0)
	for i := 0; i < 201; i++ {
		calls = append(calls, 2)
	}
	tr := trace.New("t", calls)
	cls, err := ClassifyIAR(tr, p, IAROptions{})
	if err != nil {
		t.Fatal(err)
	}
	has := func(s []trace.FuncID, f trace.FuncID) bool {
		for _, x := range s {
			if x == f {
				return true
			}
		}
		return false
	}
	if !has(cls.Other, 0) {
		t.Errorf("func 0 not in Other: %+v", cls)
	}
	if !has(cls.Replace, 1) {
		t.Errorf("func 1 not in Replace: %+v", cls)
	}
	if !has(cls.Append, 2) {
		t.Errorf("func 2 not in Append: %+v", cls)
	}

	// LowLevel 1 is the top level of this profile: no function has a
	// higher level to reach, so every one is Other.
	low1, err := ClassifyIAR(tr, p, IAROptions{LowLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(low1.Other) != 3 || len(low1.Append)+len(low1.Replace) != 0 {
		t.Errorf("LowLevel 1: %+v, want every function in Other", low1)
	}
	// The options are validated as IAR validates them.
	if _, err := ClassifyIAR(tr, p, IAROptions{K: -1}); err == nil || err.Error() != "core: IAR K must be positive, got -1" {
		t.Errorf("K -1: err = %v, want the IAR K error", err)
	}

	// On a realistic workload, across the option matrix, the sets are the
	// reference implementation's step-2 classes.
	wtr, wp := testWorkload(3)
	for _, m := range iarOptionMatrix(wp) {
		got, err := ClassifyIAR(wtr, wp, m.opts)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if want := legacyClassify(t, wtr, wp, m.opts); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: A/R/O = %d/%d/%d, reference %d/%d/%d", m.name,
				len(got.Append), len(got.Replace), len(got.Other),
				len(want.Append), len(want.Replace), len(want.Other))
		}
	}
}

// legacyClassify is legacyIAR's steps 1 and 2 — the init pass and Formulas
// 1 and 2 — returning the classes in first-appearance order.
func legacyClassify(t *testing.T, tr *trace.Trace, p *profile.Profile, opts IAROptions) IARClassification {
	t.Helper()
	if opts.K == 0 {
		opts.K = 5
	}
	model := opts.Model
	if model == nil {
		model = profile.NewOracle(p)
	}
	eval, err := sim.NewEvaluator(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	order, counts, low := tr.FirstCallOrder(), tr.Counts(), opts.LowLevel
	n1, err := legacyIARInitN1(eval, tr, p.NumFuncs(), order, low)
	if err != nil {
		t.Fatal(err)
	}
	var cls IARClassification
	for _, f := range order {
		n := counts[f]
		high := max(profile.CostEffectiveLevel(model, f, n), low)
		cl, ch := p.CompileTime(f, low), p.CompileTime(f, high)
		el, eh := p.ExecTime(f, low), p.ExecTime(f, high)
		switch {
		case high == low || ch+n*eh > cl+n*el:
			cls.Other = append(cls.Other, f)
		case ch-cl > opts.K*n1[f]*(el-eh):
			cls.Append = append(cls.Append, f)
		default:
			cls.Replace = append(cls.Replace, f)
		}
	}
	return cls
}

// TestIARNeverWorseThanInitOnly: IAR must never lose to its own step-1
// schedule (all low, first-appearance order), since later steps only apply
// changes they deem safe and beneficial.
func TestIARNeverWorseThanInitOnly(t *testing.T) {
	for seed := int64(20); seed < 30; seed++ {
		tr, p := testWorkload(seed)
		cfg := sim.DefaultConfig()
		s, err := IAR(tr, p, IAROptions{})
		if err != nil {
			t.Fatal(err)
		}
		iarRes, err := sim.Run(tr, p, s, cfg, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		initRes, err := sim.Run(tr, p, SingleLevelBase(tr), cfg, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if iarRes.MakeSpan > initRes.MakeSpan {
			t.Errorf("seed %d: IAR %d worse than init-only %d", seed, iarRes.MakeSpan, initRes.MakeSpan)
		}
	}
}
