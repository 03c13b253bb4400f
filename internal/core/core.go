// Package core implements the paper's scheduling algorithms: the lower bound
// on the minimum make-span (§5.2), the single-level approximations (§5.1),
// the provably optimal single-core scheme (§4.1, Theorem 1), and the IAR
// (Init-Append-Replace) heuristic (§5.1, Fig. 3) that approximates optimal
// schedules in the general multi-core setting where OCSP is strongly
// NP-complete.
package core

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Schedule re-exports sim.Schedule: an ordered compilation sequence.
type Schedule = sim.Schedule

// LowerBound returns the §5.2 lower bound on the minimum make-span: the sum
// over the call sequence of each call's shortest possible execution time
// (the time at the most optimized level). No schedule can finish faster, as
// the single execution worker must at least execute every call. On a trace
// whose indices are built the sum is taken per called function, over the
// memoized call counts; a cold trace is summed per call rather than indexed
// for this alone. tr must be valid for p (tr.Validate(p.NumFuncs())).
func LowerBound(tr *trace.Trace, p *profile.Profile) int64 {
	var sum int64
	if tr.Indexed() {
		counts := tr.Counts()
		for _, f := range tr.FirstCallOrder() {
			sum += counts[f] * p.BestExecTime(f)
		}
		return sum
	}
	best := make([]int64, p.NumFuncs())
	for f := range best {
		best[f] = p.BestExecTime(trace.FuncID(f))
	}
	for _, f := range tr.Calls {
		sum += best[f]
	}
	return sum
}

// LowerBoundAtLevels generalizes LowerBound to a fixed per-function level
// choice: the sum over calls of the true execution time at levels[f]. The
// paper's normalization baseline is this bound with each function at the
// level its cost-benefit model deems most cost effective — the deepest
// version the runtime would ever build. That is why, in §6.2.2, switching to
// an oracle model "lowers the lower bound": better level choices shorten the
// best achievable execution.
//
// It sums per called function over the memoized call counts (the level
// check needs the trace's indices anyway), checking levels in first-call
// order. A trace with a negative function ID is an error.
func LowerBoundAtLevels(tr *trace.Trace, p *profile.Profile, levels []profile.Level) (int64, error) {
	if len(levels) < tr.NumFuncs() {
		return 0, fmt.Errorf("core: got %d level choices for %d called functions", len(levels), tr.NumFuncs())
	}
	if err := tr.Validate(-1); err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	counts := tr.Counts()
	var sum int64
	for _, f := range tr.FirstCallOrder() {
		l := levels[f]
		if l < 0 || int(l) >= p.Levels {
			return 0, fmt.Errorf("core: function %d assigned level %d outside [0,%d)", f, l, p.Levels)
		}
		sum += counts[f] * p.ExecTime(f, l)
	}
	return sum, nil
}

// VariedLowerBound is LowerBoundAtLevels against a specific per-call
// execution-time realization (§8): call i's time is scaled by
// sim.CallFactor(seed, i, magnitude). Because the factors are
// mean-preserving, the expectation over realizations equals the
// average-based bound — the §8 argument for why per-call averages do not
// skew the computed bounds.
func VariedLowerBound(tr *trace.Trace, p *profile.Profile, levels []profile.Level, magnitude float64, seed int64) (int64, error) {
	if len(levels) < tr.NumFuncs() {
		return 0, fmt.Errorf("core: got %d level choices for %d called functions", len(levels), tr.NumFuncs())
	}
	if magnitude < 0 || magnitude >= 1 {
		return 0, fmt.Errorf("core: variation magnitude must be in [0,1), got %g", magnitude)
	}
	var sum int64
	for i, f := range tr.Calls {
		l := levels[f]
		if l < 0 || int(l) >= p.Levels {
			return 0, fmt.Errorf("core: function %d assigned level %d outside [0,%d)", f, l, p.Levels)
		}
		e := p.ExecTime(f, l)
		if magnitude > 0 {
			factor := sim.CallFactor(seed, i, magnitude)
			e = int64(float64(e) * factor)
			if e < 1 {
				e = 1
			}
		}
		sum += e
	}
	return sum, nil
}

// ModelLowerBound is LowerBoundAtLevels with each appearing function at its
// model-chosen cost-effective level — the baseline the paper's Figs. 5, 6
// and 8 normalize against.
func ModelLowerBound(tr *trace.Trace, p *profile.Profile, m profile.CostModel) int64 {
	lb, err := LowerBoundAtLevels(tr, p, SingleCoreLevels(tr, m))
	if err != nil {
		// SingleCoreLevels only produces in-range levels; unreachable.
		panic(err)
	}
	return lb
}

// SingleLevelBase returns the base-level-only approximation of §5.1: every
// function compiled once at level 0, in order of first appearance. With no
// recompilation, first-appearance order is the best possible order.
func SingleLevelBase(tr *trace.Trace) Schedule {
	order := tr.FirstCallOrder()
	s := make(Schedule, len(order))
	for i, f := range order {
		s[i] = sim.CompileEvent{Func: f, Level: 0}
	}
	return s
}

// SingleLevelOptimizing returns the optimizing-level-only approximation of
// §5.1: every function compiled once, in order of first appearance, at its
// "suitable highest compilation level" — the most cost-effective *optimizing*
// level under the model. Unlike the default scheme, even cold functions get
// an optimizing compilation (never the base level), which is what saves
// execution time but inflates compilation time and bubbles in Fig. 5. For a
// single-level profile this degenerates to level 0.
func SingleLevelOptimizing(tr *trace.Trace, m profile.CostModel) Schedule {
	counts := tr.Counts()
	order := tr.FirstCallOrder()
	s := make(Schedule, len(order))
	for i, f := range order {
		level := profile.Level(0)
		if m.Levels() > 1 {
			level = 1
			best := m.CompileTime(f, 1) + counts[f]*m.ExecTime(f, 1)
			for l := profile.Level(2); int(l) < m.Levels(); l++ {
				if cost := m.CompileTime(f, l) + counts[f]*m.ExecTime(f, l); cost < best {
					best = cost
					level = l
				}
			}
		}
		s[i] = sim.CompileEvent{Func: f, Level: level}
	}
	return s
}

// SingleCoreLevels returns each function's most cost-effective level under
// the model — the levels that Theorem 1 proves optimal when compilation and
// execution share one core. Functions that never appear get level 0.
func SingleCoreLevels(tr *trace.Trace, m profile.CostModel) []profile.Level {
	counts := tr.Counts()
	levels := make([]profile.Level, len(counts))
	for f, n := range counts {
		if n > 0 {
			levels[f] = profile.CostEffectiveLevel(m, trace.FuncID(f), n)
		}
	}
	return levels
}

// SingleCoreMakeSpan computes the make-span of a single-core execution under
// the given per-function level choice: with one core the machine is always
// either compiling or executing, so the make-span is simply the sum of one
// compilation per appearing function plus all execution times (§4.1).
func SingleCoreMakeSpan(tr *trace.Trace, p *profile.Profile, levels []profile.Level) (int64, error) {
	if len(levels) < tr.NumFuncs() {
		return 0, fmt.Errorf("core: got %d level choices for %d called functions", len(levels), tr.NumFuncs())
	}
	counts := tr.Counts()
	var span int64
	for f, n := range counts {
		if n == 0 {
			continue
		}
		l := levels[f]
		if l < 0 || int(l) >= p.Levels {
			return 0, fmt.Errorf("core: function %d assigned level %d outside [0,%d)", f, l, p.Levels)
		}
		span += p.CompileTime(trace.FuncID(f), l) + n*p.ExecTime(trace.FuncID(f), l)
	}
	return span, nil
}

// OptimalSingleCoreMakeSpan returns the minimum single-core make-span: the
// Theorem 1 optimum, using true times as the (oracle) cost-benefit model.
func OptimalSingleCoreMakeSpan(tr *trace.Trace, p *profile.Profile) int64 {
	span, err := SingleCoreMakeSpan(tr, p, SingleCoreLevels(tr, profile.NewOracle(p)))
	if err != nil {
		// SingleCoreLevels only produces in-range levels; this is unreachable.
		panic(err)
	}
	return span
}
