package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// IARPlanner is IAR (§5.1, Fig. 3), the one implementation of it. Reset binds
// it to a profile and options with an empty prefix; each Plan call then
// extends the visible trace and returns the IAR schedule of the whole prefix,
// re-deriving only what the new calls can change. From-scratch IAR is a
// planner given the whole trace once: Reset, then one Plan — which is what
// (*IARPlanner).IAR and the package-level IAR do. The online replanner calls
// Plan once per stride with an ever-longer trace. Every plan is
// bit-identical to the reference heuristic run from scratch on the same
// prefix — same events, same order, same error strings — which the
// differential tests in iar_test.go and planner_test.go pin across option
// matrices and growth patterns.
//
// # What carries over between plans
//
// The planner persists, per function: call count, first-call position,
// Formula 2's n1 (calls issued while the init schedule is still compiling),
// the classification ('O'/'A'/'R'), and the chosen high level. n1 is exact at
// all times without re-simulation: the init schedule only ever grows at the
// tail (new functions, low level), so its resumable simulation extends with
// the new calls, and since call starts are non-decreasing the calls starting
// before the compile end are a prefix of the trace — the head. The init
// simulation runs exactly the head (sim.PrefixSim.ExecHead) and n1 counts
// the calls it ran; no later call can join n1 unless a new function moves
// the compile end, and then the pass resumes from where it stopped. A
// one-shot plan over a long trace thus simulates the init schedule only up
// to its compile end.
//
// Only functions whose count or n1 changed since the last plan (the dirty
// set) are reclassified. If no new function appeared and no dirty function's
// (class, high) outcome changed, the previous plan's structure is provably
// still what from-scratch IAR would build — the step-2 schedule, the
// fill-slack slack/suffix-minimum tables, and the chosen replacement set all
// depend only on per-function outcomes and on call starts at first-call
// positions, none of which appending calls can alter — so the planner skips
// the rebuild (a "fast replan"): it extends the resumable simulations of the
// step-2 schedule and its fill-slack candidate by the new calls only and
// re-runs the cheap final selection. The fill-slack accept test and step 4's
// gap fill are re-decided every plan — both compare make-spans that grow
// with the stream — so a fast replan is never a stale plan. Otherwise the
// planner rebuilds the schedule structures and re-simulates the step-2
// schedule and its fill-slack candidate over the prefix, each as a head plus
// a counted tail: the calls that start before that schedule's compile end,
// and the one after them, run call by call; past the compile end every
// function has settled, so the rest moves the clock by Σ_f late[f]·exec[f]
// (sim.PrefixSim.AdvanceSettled), the late-call counts being the call
// counts less the head's. The slack table's first-call starts past the head
// are one settled running sum up to the last first call
// (sim.PrefixSim.TailStarts). A rebuild thus costs the two heads plus
// O(functions), not the prefix. The three simulators share one flattened
// profile (sim.PrefixSim.RebindShared).
//
// # Ownership and reuse contract
//
// Each Plan call's trace must extend the previous call's since the last
// Reset: the earlier calls unchanged (the planner reads only the new
// suffix), length non-decreasing. Options are fixed between Resets. The
// returned Schedule aliases the planner's buffers and is valid only until
// the next Plan, IAR or Reset call; callers that keep it must Clone it. The
// package-level IAR function wraps a pooled planner and returns an owned
// copy. The zero IARPlanner is ready for IAR or Reset. Reset keeps every
// buffer, so a planner reused across instances of the same or smaller size
// allocates (almost) nothing. A planner is not safe
// for concurrent use; concurrent callers hold one each (the pool hands out
// one per caller). The trace and profile are treated as immutable.
type IARPlanner struct {
	p     *profile.Profile
	opts  IAROptions
	model profile.CostModel
	nf    int

	// Stream state, maintained in O(delta) per plan.
	nCalls    int
	counts    []int64
	firstCall []int
	posOf     []int32
	order     []trace.FuncID
	funcs     []iarFunc

	// Formula 2 state: the init schedule's resumable sim, run up to its
	// compile end, and n1. The init sim owns the flattened profile the two
	// plan sims share.
	initSim *sim.PrefixSim
	n1      []int64

	touched     []bool
	touchedList []trace.FuncID

	// Plan structure, valid between rebuilds while stable.
	planValid bool
	sched2    Schedule
	appendSet []int32
	sched2Sim *sim.PrefixSim
	haveCand  bool
	candidate Schedule
	candSim   *sim.PrefixSim
	chosen    []int32

	// Per-simulation late-call counts for step 4: calls starting at or after
	// that simulation's compile end — the call counts less the head's after
	// a rebuild, then maintained incrementally (the compile end is fixed
	// between rebuilds, and starts are non-decreasing, so only new calls can
	// join the late set).
	lateBase []int64
	lateCand []int64

	// Rebuild and step-4 scratch. starts holds the call starts of the last
	// plan simulation run — the head and the call after it after a resim,
	// the new calls after an extension — one buffer for both simulations,
	// since each run's starts are consumed before the next. tailAt holds
	// the settled-tail positions of the first calls the step-2 run did not
	// record.
	starts  []int64
	tailAt  []int
	slack   []int64
	suffMin []int64
	removed []bool
	cands   []int32
	plan    Schedule

	replans     int64
	fastReplans int64
	runs        int64 // one-shot IAR runs
}

// NewIARPlanner returns a planner reset to the profile and options; see
// Reset for the validation.
func NewIARPlanner(p *profile.Profile, opts IAROptions) (*IARPlanner, error) {
	pl := &IARPlanner{}
	if err := pl.Reset(p, opts); err != nil {
		return nil, err
	}
	return pl, nil
}

// Reset rebinds the planner to the profile and options with an empty
// prefix, keeping its buffers. It normalizes and validates the options (K
// zero means 5; K negative and a LowLevel outside the profile's levels are
// errors) and the profile, with the error strings of the reference
// implementation. On error the planner must be Reset again before Plan.
func (pl *IARPlanner) Reset(p *profile.Profile, opts IAROptions) error {
	if opts.K == 0 {
		opts.K = 5
	}
	if opts.K < 0 {
		return fmt.Errorf("core: IAR K must be positive, got %d", opts.K)
	}
	if opts.LowLevel < 0 || int(opts.LowLevel) >= p.Levels {
		return fmt.Errorf("core: IAR LowLevel %d outside [0,%d)", opts.LowLevel, p.Levels)
	}
	model := opts.Model
	if model == nil {
		model = profile.NewOracle(p)
	}
	if pl.initSim == nil {
		pl.initSim, pl.sched2Sim, pl.candSim = new(sim.PrefixSim), new(sim.PrefixSim), new(sim.PrefixSim)
		iarCounters.planners.Add(1)
		obs.Default().IARPlannerCreated()
	}
	// One flattened profile: the plan simulators read the init simulator's.
	if err := pl.initSim.Rebind(p, sim.DefaultConfig()); err != nil {
		return err
	}
	for _, s := range [...]*sim.PrefixSim{pl.sched2Sim, pl.candSim} {
		if err := s.RebindShared(pl.initSim, sim.DefaultConfig()); err != nil {
			return err
		}
	}
	nf := p.NumFuncs()
	pl.p, pl.opts, pl.model, pl.nf = p, opts, model, nf
	pl.nCalls = 0
	pl.counts = zeroed(pl.counts, nf)
	pl.n1 = zeroed(pl.n1, nf)
	pl.touched = zeroed(pl.touched, nf)
	pl.lateBase = zeroed(pl.lateBase, nf)
	pl.lateCand = zeroed(pl.lateCand, nf)
	pl.firstCall = growTo(pl.firstCall, nf)
	pl.posOf = growTo(pl.posOf, nf)
	for f := range nf {
		pl.firstCall[f] = -1
		pl.posOf[f] = -1
	}
	// Sized once for the profile, so a growing prefix reallocates nothing
	// while replanning: a function appears once in the order and at most
	// twice in any IAR schedule.
	pl.order = slices.Grow(pl.order[:0], nf)
	pl.funcs = slices.Grow(pl.funcs[:0], nf)
	pl.slack = slices.Grow(pl.slack[:0], nf)
	pl.tailAt = slices.Grow(pl.tailAt[:0], nf)
	pl.suffMin = slices.Grow(pl.suffMin[:0], nf+1)
	pl.sched2 = slices.Grow(pl.sched2[:0], 2*nf)
	pl.plan = slices.Grow(pl.plan[:0], 2*nf)
	pl.touchedList = slices.Grow(pl.touchedList[:0], nf)
	pl.planValid, pl.haveCand = false, false
	pl.replans, pl.fastReplans = 0, 0
	return nil
}

// IAR is from-scratch IAR on the planner: Reset to the profile and options,
// then one Plan over the whole trace. The result aliases the planner (see
// the type comment); the package-level IAR documents the algorithm.
func (pl *IARPlanner) IAR(tr *trace.Trace, p *profile.Profile, opts IAROptions) (Schedule, error) {
	pl.runs++
	warm := pl.runs > 1
	iarCounters.runs.Add(1)
	if warm {
		iarCounters.warmRuns.Add(1)
	}
	obs.Default().IARRun(warm)
	if err := pl.Reset(p, opts); err != nil {
		return nil, err
	}
	return pl.Plan(tr)
}

// growTo resizes a scratch slice to n elements, reusing the backing array
// when it is large enough. Callers overwrite or clear the contents.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed is growTo with the contents cleared.
func zeroed[T any](s []T, n int) []T {
	s = growTo(s, n)
	clear(s)
	return s
}

// Replans returns how many plans the planner has produced since the last
// Reset.
func (pl *IARPlanner) Replans() int64 { return pl.replans }

// FastReplans returns how many of those plans took the stable path — no
// structural rebuild, only O(delta) simulation extensions.
func (pl *IARPlanner) FastReplans() int64 { return pl.fastReplans }

// touch marks a function dirty for this plan's reclassification pass.
func (pl *IARPlanner) touch(f trace.FuncID) {
	if !pl.touched[f] {
		pl.touched[f] = true
		pl.touchedList = append(pl.touchedList, f)
	}
}

// Plan returns the IAR schedule for the visible prefix; see the type comment
// for the growth contract and the identity guarantee.
func (pl *IARPlanner) Plan(visible *trace.Trace) (Schedule, error) {
	stable, err := pl.classify(visible)
	if err != nil {
		return nil, err
	}
	if len(pl.order) == 0 {
		return Schedule{}, nil
	}
	pl.replans++
	if stable {
		pl.fastReplans++
		err = pl.extendPlanSims(visible.Calls[pl.sched2Sim.NumCalls():])
	} else {
		err = pl.rebuildPlans(visible.Calls)
	}
	pl.planValid = err == nil
	if err != nil {
		return nil, err
	}
	return pl.finishPlan(), nil
}

// classify absorbs the calls the visible prefix adds — counts, first
// appearances (which extend the init schedule), the init pass and n1 — and
// reclassifies the functions they touched (Formulas 1 and 2, Fig. 3 step
// 2). It reports whether the cached plan structure is still the one
// from-scratch IAR would build: no new function and no changed (class,
// high) outcome.
func (pl *IARPlanner) classify(visible *trace.Trace) (stable bool, err error) {
	calls := visible.Calls
	if len(calls) < pl.nCalls {
		return false, fmt.Errorf("core: planner visible prefix shrank from %d to %d calls", pl.nCalls, len(calls))
	}
	delta := calls[pl.nCalls:]

	// Absorb the delta: counts, first appearances (which also extend the
	// init schedule), and the dirty set.
	newFuncs := false
	pl.touchedList = pl.touchedList[:0]
	for di, f := range delta {
		if f < 0 {
			return false, fmt.Errorf("trace %q: call %d has negative function id %d", visible.Name, pl.nCalls+di, f)
		}
		if int(f) >= pl.nf {
			return false, fmt.Errorf("trace %q: call %d references function %d beyond %d", visible.Name, pl.nCalls+di, f, pl.nf)
		}
		if pl.firstCall[f] < 0 {
			pl.firstCall[f] = pl.nCalls + di
			pl.posOf[f] = int32(len(pl.order))
			pl.order = append(pl.order, f)
			pl.funcs = append(pl.funcs, iarFunc{f: f, pos: len(pl.funcs), appended: -1})
			newFuncs = true
			if err := pl.initSim.AppendCompile(sim.CompileEvent{Func: f, Level: pl.opts.LowLevel}); err != nil {
				return false, err
			}
		}
		pl.counts[f]++
		pl.touch(f)
	}
	pl.nCalls = len(calls)

	// The init pass resumes at its first unexecuted call and runs the calls
	// that start before the (possibly grown) compile end: n1's new hits.
	n0 := pl.initSim.NumCalls()
	_, n, err := pl.initSim.ExecHead(nil, calls[n0:], false)
	if err != nil {
		return false, err
	}
	for _, f := range calls[n0 : n0+n] {
		pl.n1[f]++
		pl.touch(f)
	}

	// Reclassify the dirty set; any changed (class, high) outcome or new
	// function voids the cached plan structure.
	stable = pl.planValid && !newFuncs
	for _, f := range pl.touchedList {
		pl.touched[f] = false
		ff := &pl.funcs[pl.posOf[f]]
		n := pl.counts[f]
		high := profile.CostEffectiveLevel(pl.model, f, n)
		if high < pl.opts.LowLevel {
			high = pl.opts.LowLevel
		}
		low := pl.opts.LowLevel
		cl, el := pl.p.CompileTime(f, low), pl.p.ExecTime(f, low)
		ch, eh := pl.p.CompileTime(f, high), pl.p.ExecTime(f, high)
		var class byte
		switch {
		case high == low || ch+n*eh > cl+n*el: // Formula 1
			class = 'O'
		case ch-cl > pl.opts.K*pl.n1[f]*(el-eh): // Formula 2
			class = 'A'
		default:
			class = 'R'
		}
		if class != ff.class || high != ff.high {
			stable = false
		}
		ff.n, ff.low, ff.high, ff.cl, ff.el, ff.ch, ff.eh, ff.class = n, low, high, cl, el, ch, eh, class
	}
	return stable, nil
}

// extendPlanSims advances the step-2 and candidate simulations by the new
// calls only — the whole cost of a fast replan.
func (pl *IARPlanner) extendPlanSims(delta []trace.FuncID) error {
	if err := pl.execLate(pl.sched2Sim, delta, pl.lateBase); err != nil {
		return err
	}
	if pl.haveCand {
		return pl.execLate(pl.candSim, delta, pl.lateCand)
	}
	return nil
}

// execLate executes calls on a plan simulation, into the shared starts
// scratch, and adds the calls that start at or after its compile end to the
// per-function late-call counts. Starts never decrease, so the late calls
// are a suffix.
func (pl *IARPlanner) execLate(s *sim.PrefixSim, calls []trace.FuncID, late []int64) error {
	var err error
	if pl.starts, err = s.ExecCalls(pl.starts[:0], calls); err != nil {
		return err
	}
	k, _ := slices.BinarySearch(pl.starts, s.CompileEnd())
	for _, f := range calls[k:] {
		late[f]++
	}
	return nil
}

// rebuildPlans reconstructs the step-2 schedule and the fill-slack candidate
// from the current per-function outcomes and re-simulates both over the full
// prefix — Fig. 3 steps 2 and 3.
func (pl *IARPlanner) rebuildPlans(calls []trace.FuncID) error {
	funcs := pl.funcs
	appendSet := pl.appendSet[:0]
	for i := range funcs {
		funcs[i].appended = -1
		if funcs[i].class == 'A' {
			appendSet = append(appendSet, int32(i))
		}
	}
	slices.SortStableFunc(appendSet, func(x, y int32) int {
		return cmp.Compare(funcs[x].ch, funcs[y].ch)
	})
	pl.appendSet = appendSet

	sched := pl.sched2[:0]
	for i := range funcs {
		ff := &funcs[i]
		level := ff.low
		if ff.class == 'R' {
			level = ff.high
		}
		sched = append(sched, sim.CompileEvent{Func: ff.f, Level: level})
	}
	for _, fi := range appendSet {
		funcs[fi].appended = len(sched)
		sched = append(sched, sim.CompileEvent{Func: funcs[fi].f, Level: funcs[fi].high})
	}
	pl.sched2 = sched

	if err := pl.resim(pl.sched2Sim, sched, calls, pl.lateBase, !pl.opts.DisableFillSlack); err != nil {
		return err
	}

	pl.haveCand = false
	if !pl.opts.DisableFillSlack {
		// Slack per init position — the first-call start the step-2 run
		// left in slack less the first compile's finish — suffix minima,
		// and the greedy no-bubble replacement set — Fig. 3 step 3.
		slack, dones := pl.slack, pl.sched2Sim.CompileDones()
		for i := range slack {
			slack[i] -= dones[i]
		}
		suffMin := growTo(pl.suffMin, len(funcs)+1)
		pl.suffMin = suffMin
		suffMin[len(funcs)] = int64(1) << 62
		for i := len(funcs) - 1; i >= 0; i-- {
			suffMin[i] = slack[i]
			if suffMin[i+1] < suffMin[i] {
				suffMin[i] = suffMin[i+1]
			}
		}
		var inflate int64
		chosen := pl.chosen[:0]
		for i := range funcs {
			ff := &funcs[i]
			if ff.class != 'A' {
				continue
			}
			delta := ff.ch - ff.cl
			if inflate+delta <= suffMin[i] {
				chosen = append(chosen, int32(i))
				inflate += delta
			}
		}
		pl.chosen = chosen
		if len(chosen) > 0 {
			removed := growTo(pl.removed, len(sched))
			pl.removed = removed
			clear(removed)
			cand := append(pl.candidate[:0], sched...)
			for _, fi := range chosen {
				cand[fi].Level = funcs[fi].high
				removed[funcs[fi].appended] = true
			}
			out := cand[:0]
			for i, ev := range cand {
				if !removed[i] {
					out = append(out, ev)
				}
			}
			pl.candidate = out
			if err := pl.resim(pl.candSim, out, calls, pl.lateCand, false); err != nil {
				return err
			}
			pl.haveCand = true
		}
	}
	return nil
}

// resim replays a schedule over the prefix on a resumable simulator and
// recomputes its late-call counts, at the cost of its head plus
// O(functions): the head (the calls that start before the compile end) and
// the one call after it, which may wait for the version finishing at the
// compile end, run call by call; the settled rest advances the clock from
// per-function call counts. Every call past the head is late, so the late
// counts are the prefix's call counts less the head's. With first set it
// also fills slack with each function's first-call start, in funcs order —
// the head's starts are recorded, and the rest are one settled sum up to
// the last first call.
func (pl *IARPlanner) resim(s *sim.PrefixSim, sched Schedule, calls []trace.FuncID, late []int64, first bool) error {
	s.Reset()
	for _, ev := range sched {
		if err := s.AppendCompile(ev); err != nil {
			return err
		}
	}
	starts, h, err := s.ExecHead(pl.starts[:0], calls, first)
	pl.starts = starts
	if err != nil {
		return err
	}
	copy(late, pl.counts)
	for _, f := range calls[:h] {
		late[f]--
	}
	rest := calls[h:]
	if len(rest) > 0 {
		if pl.starts, err = s.ExecCalls(pl.starts, rest[:1]); err != nil {
			return err
		}
		rest = rest[1:]
	}
	if first {
		// funcs is in first-call order: the first calls the recorded
		// starts cover come first, the rest lie in the settled tail.
		known := len(pl.starts)
		fs, at := pl.slack[:0], pl.tailAt[:0]
		for i := range pl.funcs {
			if fc := pl.firstCall[pl.funcs[i].f]; fc < known {
				fs = append(fs, pl.starts[fc])
			} else {
				at = append(at, fc-known)
			}
		}
		pl.tailAt = at
		if pl.slack, err = s.TailStarts(fs, rest, at); err != nil {
			return err
		}
	}
	if len(rest) == 0 {
		return nil
	}
	// The call at the compile end is late but already executed.
	b := calls[h]
	late[b]--
	err = s.AdvanceSettled(late, len(rest))
	late[b]++
	return err
}

// finishPlan re-decides the fill-slack acceptance and re-runs the gap fill —
// the two parts of the plan that depend on the full stream length — and
// assembles the returned schedule.
func (pl *IARPlanner) finishPlan() Schedule {
	final, finalSim, late := pl.sched2, pl.sched2Sim, pl.lateBase
	if pl.haveCand && pl.candSim.MakeSpan() <= pl.sched2Sim.MakeSpan() {
		final, finalSim, late = pl.candidate, pl.candSim, pl.lateCand
	}
	plan := append(pl.plan[:0], final...)
	if !pl.opts.DisableFillGap {
		tgap := finalSim.MakeSpan() - finalSim.CompileEnd()
		if tgap > 0 {
			// Every non-'O' function reaches its high level in either
			// final schedule (at init for 'R' and chosen 'A', appended for
			// the other 'A'), so only an 'O' function's highest scheduled
			// level, low, can lie below high.
			cands := pl.cands[:0]
			for i := range pl.funcs {
				ff := &pl.funcs[i]
				if ff.class == 'O' && ff.low < ff.high && late[ff.f] > 0 {
					cands = append(cands, int32(i))
				}
			}
			pl.cands = cands
			slices.SortStableFunc(cands, func(x, y int32) int {
				return cmp.Compare(late[pl.funcs[y].f], late[pl.funcs[x].f])
			})
			var used int64
			for _, fi := range cands {
				ff := &pl.funcs[fi]
				if used+ff.ch <= tgap {
					plan = append(plan, sim.CompileEvent{Func: ff.f, Level: ff.high})
					used += ff.ch
				}
			}
		}
	}
	pl.plan = plan
	return plan
}

// iarPool recycles planners behind the package-level IAR and ClassifyIAR:
// every goroutine that calls them concurrently gets its own planner for the
// duration of the call, and the warm buffers survive across calls
// process-wide. This is how the experiment harnesses and runner jobs get
// per-goroutine planners without any signature change.
var iarPool = sync.Pool{New: func() any { return new(IARPlanner) }}

// iarCounters aggregates IAR planner activity process-wide; `jitsched exp
// -stats` reports them next to the evaluator's counters, and the obs
// /metrics endpoint mirrors them.
var iarCounters struct {
	planners   atomic.Int64
	runs       atomic.Int64
	warmRuns   atomic.Int64
	pooledRuns atomic.Int64
}

// IARStats is a snapshot of the process-wide IAR planner counters.
type IARStats struct {
	// Arenas counts planners sized by a first Reset; Runs counts one-shot
	// IAR runs ((*IARPlanner).IAR, which the package-level IAR wraps), of
	// which WarmRuns reused a planner that had run before and PooledRuns
	// went through the package-level IAR's sync.Pool. Online replans
	// (Plan on a growing prefix) are not runs.
	Arenas     int64
	Runs       int64
	WarmRuns   int64
	PooledRuns int64
}

// ReadIARStats snapshots the process-wide IAR planner counters.
func ReadIARStats() IARStats {
	return IARStats{
		Arenas:     iarCounters.planners.Load(),
		Runs:       iarCounters.runs.Load(),
		WarmRuns:   iarCounters.warmRuns.Load(),
		PooledRuns: iarCounters.pooledRuns.Load(),
	}
}

// Summary renders the stats as one line.
func (s IARStats) Summary() string {
	return fmt.Sprintf("core: %d IAR planners, %d runs (%d warm, %d pooled)",
		s.Arenas, s.Runs, s.WarmRuns, s.PooledRuns)
}
