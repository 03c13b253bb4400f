package online

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SchedStats is a scheduler's own cost accounting — the price of making the
// scheduling decisions, kept apart from the simulated workload the decisions
// produce (the SPDP framing: decision cost is work too).
type SchedStats struct {
	// Replans counts plans produced; DirtySkips the subset that took the
	// warm-start fast path (dirty set empty under the plan-stability check —
	// no structural rebuild, only O(new calls) simulation extensions).
	Replans    int64
	DirtySkips int64
	// SchedNanos is the wall time spent inside replans.
	SchedNanos int64
}

// StatsReporter is implemented by schedulers that account their own cost;
// the engine forwards the stats to Options.Metrics at the end of a run.
type StatsReporter interface {
	SchedStats() SchedStats
}

// IAR is the online adaptation of the paper's offline IAR scheme: it
// periodically replans over the visible prefix and commits only the
// per-function level upgrades the new plan introduces, in plan order.
// Earlier commitments are sunk — the merge never retracts, so a bad early
// guess costs exactly one wasted compilation, as it would in a real runtime.
//
// Replanning is incremental: a core.IARPlanner carries the per-function
// classification, n1, and the previous plan's schedules across
// replans, so each replan costs O(new calls) when the visible prefix's
// growth didn't change any classification — and, when it did, a replay of
// the step-2 schedule and its fill-slack candidate that runs each only up to
// its compile end and takes the settled rest from per-function call counts.
// The plans
// are bit-identical to from-scratch IAR on every prefix (see
// core.IARPlanner), so the committed stream equals that of a scheduler
// running core.IAR over the visible prefix at every replan; the
// differential tests pin that across window/stride matrices.
//
// With an unbounded window the first Observe sees the whole trace, the plan
// is the offline plan, and no later replan fires (the visible prefix never
// grows again) — which is how the engine's unbounded run reproduces offline
// IAR bit for bit.
type IAR struct {
	stride  int
	planned int // visible length when the last plan ran, -1 before the first
	emitted []profile.Level
	planner *core.IARPlanner
	err     error
	// out is the reusable emit buffer: the slice returned by Observe is
	// valid only until the next Observe call, which is all the engine's
	// immediate commit loop needs.
	out   []sim.CompileEvent
	stats SchedStats
}

// DefaultReplanStride is how much the visible prefix must grow between IAR
// replans when NewIAR is given a non-positive stride.
const DefaultReplanStride = 512

// NewIAR returns an online IAR scheduler over the profile. opts are fixed
// for every replan; stride is the minimum visible-prefix growth between
// replans (DefaultReplanStride if non-positive). Invalid options surface on
// the first Observe, as they did when each replan validated them.
func NewIAR(p *profile.Profile, opts core.IAROptions, stride int) *IAR {
	if stride <= 0 {
		stride = DefaultReplanStride
	}
	emitted := make([]profile.Level, p.NumFuncs())
	for i := range emitted {
		emitted[i] = -1
	}
	planner, err := core.NewIARPlanner(p, opts)
	return &IAR{stride: stride, planned: -1, emitted: emitted, planner: planner, err: err}
}

// Replans returns how many times the scheduler has replanned so far.
func (s *IAR) Replans() int { return int(s.stats.Replans) }

// SchedStats implements StatsReporter.
func (s *IAR) SchedStats() SchedStats {
	st := s.stats
	if s.planner != nil {
		st.DirtySkips = s.planner.FastReplans()
	}
	return st
}

// Observe implements Scheduler. The returned slice aliases the scheduler's
// emit buffer and is valid until the next Observe.
func (s *IAR) Observe(i int, visible *trace.Trace, now int64) ([]sim.CompileEvent, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.planned >= 0 && visible.Len() < s.planned+s.stride {
		return nil, nil
	}
	t0 := time.Now()
	plan, err := s.planner.Plan(visible)
	if err != nil {
		return nil, err
	}
	s.planned = visible.Len()
	s.stats.Replans++
	out := s.out[:0]
	for _, ev := range plan {
		if ev.Level > s.emitted[ev.Func] {
			s.emitted[ev.Func] = ev.Level
			out = append(out, ev)
		}
	}
	s.out = out
	s.stats.SchedNanos += time.Since(t0).Nanoseconds()
	return out, nil
}

// V8Style is the V8-like heuristic adapted to lookahead: every function is
// compiled at the lowest level the moment it first enters the visible
// window (lookahead turns V8's lazy first-call compile into a prefetch),
// and promoted straight to one high level on its second executed call —
// V8's "optimize on the next invocation after it turns warm" rule with the
// warm-up threshold of policy.V8.
type V8Style struct {
	levels  int
	high    profile.Level
	scanned int
	counts  []int64
	seen    []bool
}

// NewV8Style returns a V8-style scheduler promoting to the given high level
// (must be a real level above 0 in the profile).
func NewV8Style(p *profile.Profile, high profile.Level) (*V8Style, error) {
	if high < 1 || int(high) >= p.Levels {
		return nil, fmt.Errorf("online: V8 high level %d outside [1,%d)", high, p.Levels)
	}
	nf := p.NumFuncs()
	return &V8Style{levels: p.Levels, high: high, counts: make([]int64, nf), seen: make([]bool, nf)}, nil
}

// Observe implements Scheduler.
func (v *V8Style) Observe(i int, visible *trace.Trace, now int64) ([]sim.CompileEvent, error) {
	var out []sim.CompileEvent
	// Prefetch: baseline-compile every function newly revealed by the
	// window's forward edge since the last call.
	for _, f := range visible.Calls[v.scanned:] {
		if !v.seen[f] {
			v.seen[f] = true
			out = append(out, sim.CompileEvent{Func: f, Level: 0})
		}
	}
	v.scanned = visible.Len()
	f := visible.Calls[i]
	v.counts[f]++
	if v.counts[f] == 2 {
		out = append(out, sim.CompileEvent{Func: f, Level: v.high})
	}
	return out, nil
}

// Sampled is the Jikes-style sampling recompiler: it ignores the lookahead
// window entirely (a sampler only knows the past) and instead counts
// simulated-time sampling ticks against whichever function the execution
// worker was running — or blocked on — since the previous call, then
// applies the same cost-benefit upgrade rule as policy.Jikes: recompile to
// the level m minimizing e_m*k' + c_m when that beats staying put, with
// k' = samples*period/e_l the sample-estimated remaining invocations.
// Functions are baseline-compiled at their first executed call, like the
// real system's lazy first compile.
type Sampled struct {
	model   profile.CostModel
	period  int64
	lastNow int64
	seen    []int64
	level   []profile.Level
}

// NewSampled returns a sampling scheduler with the given cost-benefit model
// (nil means the oracle over p) and sampling period in ticks.
func NewSampled(p *profile.Profile, model profile.CostModel, period int64) (*Sampled, error) {
	if period <= 0 {
		return nil, fmt.Errorf("online: sampling period must be positive, got %d", period)
	}
	if model == nil {
		model = profile.NewOracle(p)
	}
	nf := p.NumFuncs()
	level := make([]profile.Level, nf)
	for i := range level {
		level[i] = -1
	}
	return &Sampled{model: model, period: period, seen: make([]int64, nf), level: level}, nil
}

// Observe implements Scheduler.
func (s *Sampled) Observe(i int, visible *trace.Trace, now int64) ([]sim.CompileEvent, error) {
	var out []sim.CompileEvent
	if i > 0 {
		// Sampling ticks that landed in (lastNow, now] hit the previous
		// call's function — it held the execution worker for that span.
		prev := visible.Calls[i-1]
		if n := now/s.period - s.lastNow/s.period; n > 0 {
			s.seen[prev] += n
			if ev := s.evaluate(prev); ev != nil {
				out = append(out, *ev)
			}
		}
	}
	s.lastNow = now
	f := visible.Calls[i]
	if s.level[f] < 0 {
		s.level[f] = 0
		out = append(out, sim.CompileEvent{Func: f, Level: 0})
	}
	return out, nil
}

// evaluate applies the Jikes cost-benefit rule to one sampled function and
// returns the upgrade to commit, if any.
func (s *Sampled) evaluate(f trace.FuncID) *sim.CompileEvent {
	l := s.level[f]
	if l < 0 {
		return nil
	}
	el := s.model.ExecTime(f, l)
	if el <= 0 {
		return nil
	}
	kEff := s.seen[f] * s.period / el
	if kEff <= 0 {
		kEff = 1
	}
	stay := el * kEff
	best := profile.Level(-1)
	var bestCost int64
	for m := l + 1; int(m) < s.model.Levels(); m++ {
		cost := s.model.ExecTime(f, m)*kEff + s.model.CompileTime(f, m)
		if cost < stay && (best < 0 || cost < bestCost) {
			best, bestCost = m, cost
		}
	}
	if best < 0 {
		return nil
	}
	s.level[f] = best
	return &sim.CompileEvent{Func: f, Level: best}
}
