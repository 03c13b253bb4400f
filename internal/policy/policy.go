// Package policy implements the online compilation-scheduling schemes of
// real runtime systems that the paper evaluates: the default Jikes RVM
// scheme (§6.2.1), the V8 scheme (§6.2.4), and plain on-demand compilation.
// Each is a sim.Policy that issues compile requests as the simulated
// execution unfolds.
package policy

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Jikes reproduces the default Jikes RVM compilation scheduling scheme:
//
//   - at a function's first invocation, compile it at the lowest level
//     (blocking);
//   - a timer-based sampler observes the executing function every Period
//     ticks and counts how often each function is seen on the call stack;
//   - after a sample of function f, with k the times f has been seen, l its
//     last compiled level, and m the level minimizing e_j*k' + c_j over
//     levels j > l under the cost-benefit model: if e_m*k' + c_m < e_l*k',
//     enqueue a recompilation of f at level m.
//
// k' is the sampler's estimate of how many invocations k samples represent:
// each sample stands for Period ticks of execution in f, so k' =
// k*Period/e_l. (The paper states the §6.2.1 criterion directly in terms of
// the sample count; converting samples to invocation counts is how Jikes
// RVM's adaptive optimization system makes the two sides of the inequality
// commensurable, and is required for the criterion to be meaningful when the
// sampling period spans many calls.)
type Jikes struct {
	model  profile.CostModel
	period int64
	seen   []int64         // sampler hit counts per function
	last   []profile.Level // level of the last requested compilation
	active []bool          // whether the function has been requested at all

	// organizer, when positive, batches recompilation decisions the way
	// Jikes RVM's adaptive optimization system does: samples accumulate in
	// a buffer and a periodic organizer pass evaluates every sampled method
	// at once, possibly enqueueing several recompilations back to back.
	// Zero evaluates each sample immediately.
	organizer    int64
	nextOrganize int64
	sampled      map[trace.FuncID]struct{} // functions sampled since the last pass
	batch        []trace.FuncID            // organizer scratch

	reqs []sim.Request // Sample's returned requests, reused across calls
}

// NewJikes builds the Jikes policy for nfuncs functions, sampling every
// period ticks, choosing recompilation levels with the given cost-benefit
// model.
func NewJikes(model profile.CostModel, nfuncs int, period int64) (*Jikes, error) {
	if model == nil {
		return nil, fmt.Errorf("policy: Jikes needs a cost-benefit model")
	}
	if nfuncs < 0 {
		return nil, fmt.Errorf("policy: negative function count %d", nfuncs)
	}
	if period <= 0 {
		return nil, fmt.Errorf("policy: Jikes sampling period must be positive, got %d", period)
	}
	return &Jikes{
		model:  model,
		period: period,
		seen:   make([]int64, nfuncs),
		last:   make([]profile.Level, nfuncs),
		active: make([]bool, nfuncs),
	}, nil
}

// NewJikesOrganizer builds the Jikes policy with batched recompilation
// decisions: samples accumulate and every organizerPeriod ticks an organizer
// pass re-evaluates all methods sampled since the previous pass. This is the
// structure of Jikes RVM's AOS (a sampling thread feeding an organizer
// thread) and the source of bursty compile-queue pressure.
func NewJikesOrganizer(model profile.CostModel, nfuncs int, samplePeriod, organizerPeriod int64) (*Jikes, error) {
	j, err := NewJikes(model, nfuncs, samplePeriod)
	if err != nil {
		return nil, err
	}
	if organizerPeriod <= 0 {
		return nil, fmt.Errorf("policy: organizer period must be positive, got %d", organizerPeriod)
	}
	j.organizer = organizerPeriod
	j.nextOrganize = organizerPeriod
	j.sampled = make(map[trace.FuncID]struct{})
	return j, nil
}

// FirstCall implements sim.Policy: first invocations compile at the lowest
// level.
func (j *Jikes) FirstCall(f trace.FuncID, now int64) profile.Level {
	j.active[f] = true
	j.last[f] = 0
	return 0
}

// BeforeCall implements sim.Policy; the Jikes scheme acts only on samples.
func (j *Jikes) BeforeCall(trace.FuncID, int64, int64) []sim.Request { return nil }

// BeforeCallLimit implements sim.Policy: BeforeCall does nothing.
func (j *Jikes) BeforeCallLimit() int64 { return 0 }

// Sample implements sim.Policy: the sampled function's hotness count grows
// and the cost-benefit recompilation test runs — immediately for the
// per-sample variant, or at the next organizer pass for the batched one.
func (j *Jikes) Sample(f trace.FuncID, now int64) []sim.Request {
	j.seen[f]++
	if j.organizer > 0 {
		j.sampled[f] = struct{}{}
		if now < j.nextOrganize {
			return nil
		}
		j.nextOrganize = now + j.organizer
		// Evaluate hottest-first (ties by id), deterministically: the
		// organizer naturally prioritizes the methods dominating the
		// samples, and map order must not leak into results.
		j.batch = j.batch[:0]
		for g := range j.sampled {
			j.batch = append(j.batch, g)
		}
		slices.SortFunc(j.batch, func(a, b trace.FuncID) int {
			if j.seen[a] != j.seen[b] {
				return cmp.Compare(j.seen[b], j.seen[a])
			}
			return cmp.Compare(a, b)
		})
		j.reqs = j.reqs[:0]
		for _, g := range j.batch {
			if r, ok := j.evaluate(g); ok {
				j.reqs = append(j.reqs, r)
			}
		}
		clear(j.sampled)
		return j.reqs
	}
	if r, ok := j.evaluate(f); ok {
		j.reqs = append(j.reqs[:0], r)
		return j.reqs
	}
	return nil
}

// evaluate runs the §6.2.1 cost-benefit recompilation test for one function
// and returns the recompilation request it mandates, if any.
func (j *Jikes) evaluate(f trace.FuncID) (sim.Request, bool) {
	if !j.active[f] {
		return sim.Request{}, false
	}
	l := j.last[f]
	el := j.model.ExecTime(f, l)
	if el <= 0 {
		return sim.Request{}, false
	}
	// k' = samples * period / e_l: the invocation count the observed samples
	// represent under the model's view of the current code version.
	kEff := j.seen[f] * j.period / el
	if kEff <= 0 {
		kEff = 1
	}
	bestLevel := l
	bestCost := int64(1)<<62 - 1
	for m := l + 1; int(m) < j.model.Levels(); m++ {
		if cost := j.model.ExecTime(f, m)*kEff + j.model.CompileTime(f, m); cost < bestCost {
			bestCost = cost
			bestLevel = m
		}
	}
	if bestLevel == l || bestCost >= el*kEff {
		return sim.Request{}, false
	}
	j.last[f] = bestLevel
	return sim.Request{Func: f, Level: bestLevel}, true
}

// SamplePeriod implements sim.Policy.
func (j *Jikes) SamplePeriod() int64 { return j.period }

// V8 reproduces the V8 scheduling scheme of §6.2.4: two levels only; a
// function is compiled at the low level when first encountered and
// recompiled at the high level at its second invocation.
type V8 struct {
	high profile.Level
	req  [1]sim.Request // BeforeCall's returned request, reused across calls
}

// NewV8 builds the V8 policy. high is the optimizing level (V8 itself has
// exactly two levels, so high is 1 when driving a two-level profile).
func NewV8(high profile.Level) (*V8, error) {
	if high < 1 {
		return nil, fmt.Errorf("policy: V8 high level must be >= 1, got %d", high)
	}
	return &V8{high: high}, nil
}

// FirstCall implements sim.Policy.
func (v *V8) FirstCall(f trace.FuncID, now int64) profile.Level { return 0 }

// BeforeCall implements sim.Policy: the second invocation triggers the
// high-level recompilation.
func (v *V8) BeforeCall(f trace.FuncID, nth int64, now int64) []sim.Request {
	if nth == 2 {
		v.req[0] = sim.Request{Func: f, Level: v.high}
		return v.req[:]
	}
	return nil
}

// BeforeCallLimit implements sim.Policy: promotion happens at the second
// invocation, so later ones need no BeforeCall.
func (v *V8) BeforeCallLimit() int64 { return 2 }

// Sample implements sim.Policy; V8's scheme is not sampling-driven.
func (v *V8) Sample(trace.FuncID, int64) []sim.Request { return nil }

// SamplePeriod implements sim.Policy.
func (v *V8) SamplePeriod() int64 { return 0 }

// Planned installs a precomputed compilation schedule into the JIT's queue
// at program start — the deployment mode §8 sketches for IAR: a schedule
// computed offline (e.g. from a cross-run-predicted call sequence) drives
// the compile queue, while functions the plan missed fall back to on-demand
// base-level compilation.
type Planned struct {
	plan      sim.Schedule
	installed bool
}

// NewPlanned builds the policy around the given schedule.
func NewPlanned(plan sim.Schedule) *Planned {
	return &Planned{plan: plan.Clone()}
}

// BeforeCall implements sim.Policy: the whole plan enters the queue when
// execution begins (time of the first call).
func (pl *Planned) BeforeCall(f trace.FuncID, nth int64, now int64) []sim.Request {
	if pl.installed {
		return nil
	}
	pl.installed = true
	reqs := make([]sim.Request, len(pl.plan))
	for i, ev := range pl.plan {
		reqs[i] = sim.Request{Func: ev.Func, Level: ev.Level}
	}
	return reqs
}

// BeforeCallLimit implements sim.Policy: the plan is installed at the first
// call of the run, which is its function's first invocation.
func (pl *Planned) BeforeCallLimit() int64 { return 1 }

// FirstCall implements sim.Policy: unplanned functions compile on demand at
// the base level.
func (pl *Planned) FirstCall(f trace.FuncID, now int64) profile.Level { return 0 }

// Sample implements sim.Policy.
func (pl *Planned) Sample(trace.FuncID, int64) []sim.Request { return nil }

// SamplePeriod implements sim.Policy.
func (pl *Planned) SamplePeriod() int64 { return 0 }

// OnDemand compiles each function once, at a fixed per-function level, when
// it is first invoked — the classic scheme that §4.1 proves optimal on a
// single core when the levels are the most cost-effective ones.
type OnDemand struct {
	levels []profile.Level
}

// NewOnDemand builds the on-demand policy. levels[f] is the level for
// function f; a nil slice means level 0 for everyone.
func NewOnDemand(levels []profile.Level) *OnDemand {
	return &OnDemand{levels: levels}
}

// FirstCall implements sim.Policy.
func (o *OnDemand) FirstCall(f trace.FuncID, now int64) profile.Level {
	if o.levels == nil {
		return 0
	}
	return o.levels[f]
}

// BeforeCall implements sim.Policy.
func (o *OnDemand) BeforeCall(trace.FuncID, int64, int64) []sim.Request { return nil }

// BeforeCallLimit implements sim.Policy: BeforeCall does nothing.
func (o *OnDemand) BeforeCallLimit() int64 { return 0 }

// Sample implements sim.Policy.
func (o *OnDemand) Sample(trace.FuncID, int64) []sim.Request { return nil }

// SamplePeriod implements sim.Policy.
func (o *OnDemand) SamplePeriod() int64 { return 0 }
