package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// IARPlanner is the warm-start form of IAR for a growing visible prefix: the
// online replanner calls Plan once per stride with an ever-longer trace, and
// the planner re-derives only what the new calls can change instead of
// re-running the whole heuristic. Its plans are bit-identical to running
// (*IARArena).IAR from scratch on the same prefix — same events, same order —
// which the differential tests in planner_test.go pin across option matrices
// and growth patterns.
//
// # What carries over between plans
//
// The planner persists, per function: call count, first-call position,
// Formula 2's n1 (calls issued while the init schedule is still compiling),
// the classification ('O'/'A'/'R'), and the chosen high level. n1 is exact at
// all times without re-simulation: the init schedule only ever grows at the
// tail (new functions, low level), so its resumable simulation extends in
// O(new calls), and since call starts are non-decreasing the set of calls
// starting before the compile end is a prefix of call indices — a frontier
// pointer re-advanced after each extension yields exactly the from-scratch
// count.
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
// planner rebuilds the schedule structures with two full simulation passes
// (from-scratch IAR needs four).
//
// # Contract
//
// Each Plan call's trace must extend the previous call's: the earlier calls
// unchanged (the planner reads only the new suffix), length non-decreasing.
// Options are fixed at construction. The returned Schedule aliases the
// planner's buffers and is valid only until the next Plan call. A planner is
// not safe for concurrent use.
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

	// Formula 2 state: the init schedule's resumable sim and the n1 frontier.
	initSim  *sim.PrefixSim
	n1       []int64
	frontier int

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
	// that simulation's compile end, maintained incrementally (the compile
	// end is fixed between rebuilds, and starts are non-decreasing, so only
	// new calls can join the late set).
	lateBase []int64
	lateCand []int64

	// Rebuild and step-4 scratch.
	slack   []int64
	suffMin []int64
	removed []bool
	cands   []int32
	plan    Schedule

	replans     int64
	fastReplans int64
}

// NewIARPlanner builds a planner over the profile with fixed options,
// normalized and validated exactly as (*IARArena).IAR does per run.
func NewIARPlanner(p *profile.Profile, opts IAROptions) (*IARPlanner, error) {
	if opts.K == 0 {
		opts.K = 5
	}
	if opts.K < 0 {
		return nil, fmt.Errorf("core: IAR K must be positive, got %d", opts.K)
	}
	if opts.LowLevel < 0 || int(opts.LowLevel) >= p.Levels {
		return nil, fmt.Errorf("core: IAR LowLevel %d outside [0,%d)", opts.LowLevel, p.Levels)
	}
	model := opts.Model
	if model == nil {
		model = profile.NewOracle(p)
	}
	initSim, err := sim.NewPrefixSim(p, sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	sched2Sim, err := sim.NewPrefixSim(p, sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	candSim, err := sim.NewPrefixSim(p, sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	nf := p.NumFuncs()
	pl := &IARPlanner{
		p: p, opts: opts, model: model, nf: nf,
		counts:    make([]int64, nf),
		firstCall: make([]int, nf),
		posOf:     make([]int32, nf),
		n1:        make([]int64, nf),
		touched:   make([]bool, nf),
		lateBase:  make([]int64, nf),
		lateCand:  make([]int64, nf),
		initSim:   initSim, sched2Sim: sched2Sim, candSim: candSim,
		// Sized once for the profile, so a growing prefix reallocates
		// nothing while replanning: a function appears once in the order
		// and at most twice in any IAR schedule.
		order:   make([]trace.FuncID, 0, nf),
		funcs:   make([]iarFunc, 0, nf),
		slack:   make([]int64, 0, nf),
		suffMin: make([]int64, 0, nf+1),
		sched2:  make(Schedule, 0, 2*nf),
		plan:    make(Schedule, 0, 2*nf),
	}
	for f := range pl.firstCall {
		pl.firstCall[f] = -1
		pl.posOf[f] = -1
	}
	return pl, nil
}

// Replans returns how many plans the planner has produced.
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
	calls := visible.Calls
	if len(calls) < pl.nCalls {
		return nil, fmt.Errorf("core: planner visible prefix shrank from %d to %d calls", pl.nCalls, len(calls))
	}
	delta := calls[pl.nCalls:]

	// Absorb the delta: counts, first appearances (which also extend the
	// init schedule), and the dirty set.
	newFuncs := false
	pl.touchedList = pl.touchedList[:0]
	for di, f := range delta {
		if f < 0 {
			return nil, fmt.Errorf("trace %q: call %d has negative function id %d", visible.Name, pl.nCalls+di, f)
		}
		if int(f) >= pl.nf {
			return nil, fmt.Errorf("trace %q: call %d references function %d beyond %d", visible.Name, pl.nCalls+di, f, pl.nf)
		}
		if pl.firstCall[f] < 0 {
			pl.firstCall[f] = pl.nCalls + di
			pl.posOf[f] = int32(len(pl.order))
			pl.order = append(pl.order, f)
			pl.funcs = append(pl.funcs, iarFunc{f: f, pos: len(pl.funcs), appended: -1})
			newFuncs = true
			if err := pl.initSim.AppendCompile(sim.CompileEvent{Func: f, Level: pl.opts.LowLevel}); err != nil {
				return nil, err
			}
		}
		pl.counts[f]++
		pl.touch(f)
	}
	if err := pl.initSim.ExecCalls(delta); err != nil {
		return nil, err
	}
	pl.nCalls = len(calls)

	// Advance the n1 frontier under the (possibly grown) compile end.
	starts, ce := pl.initSim.CallStarts(), pl.initSim.CompileEnd()
	for pl.frontier < len(starts) && starts[pl.frontier] < ce {
		f := calls[pl.frontier]
		pl.n1[f]++
		pl.touch(f)
		pl.frontier++
	}

	if len(pl.order) == 0 {
		return Schedule{}, nil
	}
	pl.replans++

	// Reclassify the dirty set; any changed (class, high) outcome or new
	// function voids the cached plan structure.
	stable := pl.planValid && !newFuncs
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

	if stable {
		pl.fastReplans++
		if err := pl.extendPlanSims(delta); err != nil {
			return nil, err
		}
	} else {
		if err := pl.rebuildPlans(calls); err != nil {
			pl.planValid = false
			return nil, err
		}
		pl.planValid = true
	}
	return pl.finishPlan(), nil
}

// extendPlanSims advances the step-2 and candidate simulations by the new
// calls only — the whole cost of a fast replan.
func (pl *IARPlanner) extendPlanSims(delta []trace.FuncID) error {
	n0 := pl.sched2Sim.NumCalls()
	if err := pl.sched2Sim.ExecCalls(delta); err != nil {
		pl.planValid = false
		return err
	}
	accrueLate(pl.sched2Sim, pl.lateBase, n0, delta)
	if pl.haveCand {
		n0 = pl.candSim.NumCalls()
		if err := pl.candSim.ExecCalls(delta); err != nil {
			pl.planValid = false
			return err
		}
		accrueLate(pl.candSim, pl.lateCand, n0, delta)
	}
	return nil
}

// accrueLate folds calls n0.. of the simulation into the per-function
// late-call counts: a call is late when it starts at or after the
// simulation's compile end.
func accrueLate(s *sim.PrefixSim, late []int64, n0 int, delta []trace.FuncID) {
	starts, ce := s.CallStarts(), s.CompileEnd()
	for j, f := range delta {
		if starts[n0+j] >= ce {
			late[f]++
		}
	}
}

// rebuildPlans reconstructs the step-2 schedule and the fill-slack candidate
// from the current per-function outcomes and re-simulates both over the full
// prefix — the same structures, built by the same comparisons in the same
// order, as (*IARArena).IAR steps 2 and 3.
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

	if err := pl.resim(pl.sched2Sim, sched, calls, pl.lateBase); err != nil {
		return err
	}

	pl.haveCand = false
	if !pl.opts.DisableFillSlack {
		// Slack per init position from the step-2 run, suffix minima, and the
		// greedy no-bubble replacement set — Fig. 3 step 3, arena order.
		starts, dones := pl.sched2Sim.CallStarts(), pl.sched2Sim.CompileDones()
		slack := arenaGrow(pl.slack, len(funcs))
		pl.slack = slack
		for i := range funcs {
			slack[i] = starts[pl.firstCall[funcs[i].f]] - dones[i]
		}
		suffMin := arenaGrow(pl.suffMin, len(funcs)+1)
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
			removed := arenaGrow(pl.removed, len(sched))
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
			if err := pl.resim(pl.candSim, out, calls, pl.lateCand); err != nil {
				return err
			}
			pl.haveCand = true
		}
	}
	return nil
}

// resim replays a schedule over the full prefix on a resumable simulator and
// recomputes its late-call counts from scratch.
func (pl *IARPlanner) resim(s *sim.PrefixSim, sched Schedule, calls []trace.FuncID, late []int64) error {
	s.Reset()
	for _, ev := range sched {
		if err := s.AppendCompile(ev); err != nil {
			return err
		}
	}
	if err := s.ExecCalls(calls); err != nil {
		return err
	}
	clear(late)
	// Starts never decrease: the late calls are a suffix.
	k, _ := slices.BinarySearch(s.CallStarts(), s.CompileEnd())
	for _, f := range calls[k:] {
		late[f]++
	}
	return nil
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
