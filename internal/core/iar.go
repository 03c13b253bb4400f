package core

import (
	"repro/internal/profile"
	"repro/internal/trace"
)

// IAROptions tunes the IAR algorithm.
type IAROptions struct {
	// K is the constant of Formula 2 in Fig. 3, weighing high-level compile
	// overhead against early-run benefit. The paper found any value in
	// [3,10] works similarly and reports results with K=5 (the default when
	// zero).
	K int64
	// Model is the cost-benefit model used to choose each function's
	// high-level candidate (its most cost-effective level). Nil means the
	// oracle over the true profile.
	Model profile.CostModel
	// DisableFillSlack skips step 3 (replace low-level compilations that fit
	// in schedule slack). For ablation studies.
	DisableFillSlack bool
	// DisableFillGap skips step 4 (append recompilations into the gap
	// between the end of compilation and the end of execution). For ablation
	// studies.
	DisableFillGap bool
	// LowLevel overrides each function's "most responsive" level (default
	// 0). §8 notes extra care is needed when level 0 is an interpreter: the
	// cheapest-to-produce tier may execute too slowly to be the right
	// initial version, and this knob lets the initial schedule start at the
	// baseline compiler instead.
	LowLevel profile.Level
}

// iarFunc is the per-function working state of the algorithm.
type iarFunc struct {
	f        trace.FuncID
	pos      int // index in first-appearance order (= index in init schedule)
	n        int64
	low      profile.Level
	high     profile.Level
	cl, ch   int64 // true compile times at low/high
	el, eh   int64 // true per-call execution times at low/high
	class    byte  // 'O', 'A', or 'R'
	appended int   // index of this function's appended high event in the schedule, or -1
}

// IAR computes a compilation schedule with the Init-Append-Replace heuristic
// of §5.1 (Fig. 3).
//
// The algorithm considers two candidate levels per function: the most
// responsive level (level 0) and the most cost-effective level under the
// cost-benefit model. It then:
//
//  1. (Init) schedules every function's low-level compilation in order of
//     first appearance, to keep compilation off the execution's critical
//     path;
//  2. (Append & Replace) classifies each function — O: a high-level compile
//     never pays off (Formula 1); A: it pays off but would delay the early
//     run, so append it after the initial schedule, cheapest compilations
//     first (Formula 2); R: it pays off quickly, so replace the initial
//     low-level compilation outright;
//  3. (Fill slack) upgrades initial low-level compilations to high level
//     wherever the slack between a function's first compilation and its
//     first call absorbs the extra compile time without bubbling anyone,
//     deleting the function's appended recompilation;
//  4. (Fill ending gap) appends further high-level compilations of
//     still-low functions — most post-compilation calls first — while they
//     fit in the gap between the end of all compilations and the end of the
//     execution.
//
// The returned schedule compiles every called function at least once. Cost is
// O(N + M log M) for N calls and M distinct functions, dominated by two
// linear simulation passes (the step-2 schedule and its fill-slack
// candidate) plus the init pass, which stops at the init schedule's compile
// end.
//
// The computation runs on a pooled IARPlanner — reset, then planned once
// over the whole trace; one planner per concurrent caller, warm buffers kept
// process-wide — and the result is an owned copy, so the function keeps
// plain value semantics. Callers that run IAR in a tight loop (the serving
// path, the timing harnesses) hold their own planner and call
// (*IARPlanner).IAR directly to also skip the copy.
func IAR(tr *trace.Trace, p *profile.Profile, opts IAROptions) (Schedule, error) {
	pl := iarPool.Get().(*IARPlanner)
	defer iarPool.Put(pl)
	iarCounters.pooledRuns.Add(1)
	sched, err := pl.IAR(tr, p, opts)
	if err != nil {
		return nil, err
	}
	out := sched.Clone()
	if out == nil {
		out = Schedule{}
	}
	return out, nil
}

// IARClassification reports how IAR's step 2 classified the functions —
// useful for understanding a schedule and for tests.
type IARClassification struct {
	Append  []trace.FuncID
	Replace []trace.FuncID
	Other   []trace.FuncID
}

// ClassifyIAR runs only the classification stage of IAR (Formulas 1 and 2 of
// Fig. 3) and returns the three sets, each in first-appearance order. It
// validates and honours the options exactly as IAR does, LowLevel included.
func ClassifyIAR(tr *trace.Trace, p *profile.Profile, opts IAROptions) (IARClassification, error) {
	var cls IARClassification
	pl := iarPool.Get().(*IARPlanner)
	defer iarPool.Put(pl)
	if err := pl.Reset(p, opts); err != nil {
		return cls, err
	}
	if _, err := pl.classify(tr); err != nil {
		return cls, err
	}
	for i := range pl.funcs {
		ff := &pl.funcs[i]
		switch ff.class {
		case 'A':
			cls.Append = append(cls.Append, ff.f)
		case 'R':
			cls.Replace = append(cls.Replace, ff.f)
		default:
			cls.Other = append(cls.Other, ff.f)
		}
	}
	return cls, nil
}
