package core

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"fmt"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// IARArena holds every buffer an IAR run needs — the per-function working
// table, the init/candidate/final schedules, the slack and late-call arrays,
// and a rebindable sim.Evaluator for the three simulation passes — so that a
// warm run performs (almost) no heap allocation. The first run on a given
// instance sizes the buffers; repeated runs on same-sized or smaller
// instances reuse them, which is what turns the per-request IAR of the
// scheduling service and the per-stride replans of the online scheduler from
// multi-megabyte allocators into near-zero-alloc calls.
//
// # Ownership and reuse contract
//
// The Schedule returned by (*IARArena).IAR aliases the arena's buffers and is
// valid only until the next call on the same arena — callers that keep the
// schedule past that point must Clone it. The package-level IAR function
// wraps a pooled arena and returns an owned copy, so existing callers keep
// value semantics without touching the pool themselves.
//
// An arena is not safe for concurrent use; concurrent harnesses use one
// arena per goroutine (the pooled wrapper does exactly that via sync.Pool).
// The trace and profile passed in are treated as immutable, as everywhere
// else in the engine: rebinding is skipped when both pointers are unchanged.
//
// # Why the maps became slices
//
// The legacy implementation kept step 3's removed set in a map[int]bool and
// the working table in per-function heap objects. Both are now flat slices
// indexed by schedule position / first-appearance position: the index spaces
// are dense and known up front, so a zeroed []bool and a []iarFunc value
// slice give the same semantics with no hashing and no per-run garbage.
// Results are bit-identical to the legacy code — schedule, make-span, and
// error strings — pinned by the differential tests in arena_test.go.
type IARArena struct {
	eval   *sim.Evaluator
	evalTr *trace.Trace
	evalP  *profile.Profile

	funcs     []iarFunc
	initSched Schedule
	n1        []int64
	appendSet []int32 // indices into funcs, sorted by ch for step 2's appends
	sched     Schedule
	spare     Schedule // step 3's candidate buffer; swaps with sched on accept
	slack     []int64
	suffMin   []int64
	removed   []bool // step 3's removed set, indexed by schedule position
	changed   []int32
	maxLevel  []profile.Level
	lateCalls []int64
	cands     []int32
	runs      int64
}

// NewIARArena returns an empty arena. Buffers are sized lazily by the first
// run.
func NewIARArena() *IARArena {
	iarCounters.arenas.Add(1)
	obs.Default().IARArenaCreated()
	return &IARArena{}
}

// arenaGrow resizes a scratch slice to n elements, reusing the backing array
// when it is large enough. Callers overwrite or clear the contents.
func arenaGrow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// bind points the arena's evaluator at the instance, reusing its tables when
// the pair is unchanged and Reset-ing (same validation, same error strings as
// sim.NewEvaluator) otherwise.
func (a *IARArena) bind(tr *trace.Trace, p *profile.Profile) error {
	if a.eval == nil {
		e, err := sim.NewEvaluator(tr, p)
		if err != nil {
			return err
		}
		a.eval, a.evalTr, a.evalP = e, tr, p
		return nil
	}
	if a.evalTr == tr && a.evalP == p {
		return nil
	}
	if err := a.eval.Reset(tr, p); err != nil {
		a.evalTr, a.evalP = nil, nil
		return err
	}
	a.evalTr, a.evalP = tr, p
	return nil
}

// initN1 runs the low-level init schedule (every function in first-appearance
// order) through the arena's evaluator and returns the per-function count of
// calls issued while that schedule is still compiling — Formula 2's f.n1.
// The simulation stops at the first call that starts at or after the
// schedule's compile end: starts never decrease, so the calls before it are
// exactly the ones counted, the planner's frontier rule. IAR and ClassifyIAR
// share this pass.
func (a *IARArena) initN1(tr *trace.Trace, nf int, order []trace.FuncID, low profile.Level) ([]int64, error) {
	s := a.initSched[:0]
	for _, f := range order {
		s = append(s, sim.CompileEvent{Func: f, Level: low})
	}
	a.initSched = s
	starts, err := a.eval.StartsBeforeCompileEnd(s, sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	n1 := arenaGrow(a.n1, nf)
	a.n1 = n1
	clear(n1)
	for _, f := range tr.Calls[:len(starts)] {
		n1[f]++
	}
	return n1, nil
}

// IAR computes a compilation schedule with the Init-Append-Replace heuristic
// of §5.1 (Fig. 3), reusing the arena's buffers. The returned Schedule
// aliases the arena and is valid until the next call on it; see the type
// comment for the ownership contract, and the package-level IAR function for
// the owned-copy wrapper. The algorithm and its outputs are documented there.
func (a *IARArena) IAR(tr *trace.Trace, p *profile.Profile, opts IAROptions) (Schedule, error) {
	a.runs++
	iarCounters.runs.Add(1)
	if a.runs > 1 {
		iarCounters.warmRuns.Add(1)
	}
	obs.Default().IARRun(a.runs > 1)

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
	if err := tr.Validate(p.NumFuncs()); err != nil {
		return nil, err
	}

	order := tr.FirstCallOrder()
	if len(order) == 0 {
		return Schedule{}, nil
	}
	counts := tr.Counts()

	funcs := arenaGrow(a.funcs, len(order))
	a.funcs = funcs
	for i, f := range order {
		high := profile.CostEffectiveLevel(model, f, counts[f])
		if high < opts.LowLevel {
			high = opts.LowLevel
		}
		ff := iarFunc{
			f: f, pos: i, n: counts[f],
			low:      opts.LowLevel,
			high:     high,
			appended: -1,
		}
		ff.cl = p.CompileTime(f, ff.low)
		ff.el = p.ExecTime(f, ff.low)
		ff.ch = p.CompileTime(f, ff.high)
		ff.eh = p.ExecTime(f, ff.high)
		funcs[i] = ff
	}

	if err := a.bind(tr, p); err != nil {
		return nil, err
	}

	// Steps 1 and 2a (init + n1): one pass over the low-level init schedule,
	// up to its compile end, yields Formula 2's per-function n1.
	n1, err := a.initN1(tr, p.NumFuncs(), order, opts.LowLevel)
	if err != nil {
		return nil, err
	}

	// Step 2 (classify, then append & replace).
	appendSet := a.appendSet[:0]
	for i := range funcs {
		ff := &funcs[i]
		switch {
		case ff.high == ff.low || ff.ch+ff.n*ff.eh > ff.cl+ff.n*ff.el: // Formula 1
			ff.class = 'O'
		case ff.ch-ff.cl > opts.K*n1[ff.f]*(ff.el-ff.eh): // Formula 2
			ff.class = 'A'
			appendSet = append(appendSet, int32(i))
		default:
			ff.class = 'R'
		}
	}
	a.appendSet = appendSet
	slices.SortStableFunc(appendSet, func(x, y int32) int {
		return cmp.Compare(funcs[x].ch, funcs[y].ch)
	})

	sched := a.sched[:0]
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

	// Step 3 (fill slack through replacement). Simulate once to find each
	// function's slack: first-call start minus first-compilation finish.
	// Upgrading function f's initial compilation from low to high inflates
	// every later initial compilation's finish by ch-cl; it adds no bubble
	// iff the accumulated inflation fits within the minimum slack from f's
	// position onward. Delaying the initial compilations also delays any
	// recompilations still appended behind them, which can cost more than
	// the replacements save, so the step is applied transactionally: keep
	// the replacements only if a re-evaluation confirms they did not regress
	// the make-span.
	// gapRes, when non-nil, is a still-valid run of the current schedule —
	// its Result and the evaluator's call starts — that step 4 can reuse
	// instead of re-simulating. Step 3's entry run qualifies exactly when
	// step 3 ends up changing nothing: the schedule is the one it simulated
	// and no evaluator call has clobbered the result — the "identical
	// schedule" delta shape, answered with zero re-simulation.
	var gapRes *sim.Result
	if !opts.DisableFillSlack {
		res, err := a.eval.Run(sched, sim.DefaultConfig(), sim.Options{})
		if err != nil {
			return nil, err
		}
		// Consume the result before the verification pass reuses the arena.
		baseSpan := res.MakeSpan
		firstCalls := tr.FirstCalls()
		starts := a.eval.CallStarts()
		slack := arenaGrow(a.slack, len(funcs)) // indexed by init position
		a.slack = slack
		for i := range funcs {
			slack[i] = starts[firstCalls[funcs[i].f]] - res.Compiles[i].Done
		}
		// suffMin[i] = min slack over positions >= i.
		suffMin := arenaGrow(a.suffMin, len(funcs)+1)
		a.suffMin = suffMin
		suffMin[len(funcs)] = int64(1) << 62
		for i := len(funcs) - 1; i >= 0; i-- {
			suffMin[i] = slack[i]
			if suffMin[i+1] < suffMin[i] {
				suffMin[i] = suffMin[i+1]
			}
		}
		var inflate int64
		removed := arenaGrow(a.removed, len(sched))
		a.removed = removed
		clear(removed)
		nRemoved := 0
		candidate := append(a.spare[:0], sched...)
		a.spare = candidate
		changed := a.changed[:0]
		for i := range funcs {
			ff := &funcs[i]
			if ff.class != 'A' {
				continue
			}
			delta := ff.ch - ff.cl
			if inflate+delta <= suffMin[i] {
				candidate[i].Level = ff.high
				removed[ff.appended] = true
				nRemoved++
				changed = append(changed, int32(i))
				inflate += delta
			}
		}
		a.changed = changed
		if nRemoved == 0 {
			gapRes = res
		}
		if nRemoved > 0 {
			compact := candidate[:0]
			for i, ev := range candidate {
				if !removed[i] {
					compact = append(compact, ev)
				}
			}
			candidate = compact
			// A multi-position edit, so MakeSpanOf falls back to a full
			// (still allocation-free) evaluator run.
			after, err := a.eval.MakeSpanOf(candidate, sim.DefaultConfig(), sim.Options{})
			if err != nil {
				return nil, err
			}
			if after <= baseSpan {
				// The candidate becomes the schedule; the displaced schedule
				// buffer becomes the next run's candidate scratch.
				a.spare = sched
				sched = candidate
				for _, fi := range changed {
					funcs[fi].appended = -1
					funcs[fi].class = 'R'
				}
			}
		}
	}

	// Step 4 (append more to fill the ending gap). While execution outlives
	// compilation, idle compile capacity can upgrade still-low functions for
	// free; prioritize the functions with the most calls after compilation
	// ends.
	if !opts.DisableFillGap {
		res := gapRes
		if res == nil {
			var err error
			res, err = a.eval.Run(sched, sim.DefaultConfig(), sim.Options{})
			if err != nil {
				return nil, err
			}
		}
		tgap := res.MakeSpan - res.CompileEnd
		if tgap > 0 {
			maxLevel := arenaGrow(a.maxLevel, p.NumFuncs())
			a.maxLevel = maxLevel
			for i := range maxLevel {
				maxLevel[i] = -1
			}
			for _, ev := range sched {
				if ev.Level > maxLevel[ev.Func] {
					maxLevel[ev.Func] = ev.Level
				}
			}
			lateCalls := arenaGrow(a.lateCalls, p.NumFuncs())
			a.lateCalls = lateCalls
			clear(lateCalls)
			// Starts never decrease: the late calls are a suffix.
			late, _ := slices.BinarySearch(a.eval.CallStarts(), res.CompileEnd)
			for _, f := range tr.Calls[late:] {
				lateCalls[f]++
			}
			cands := a.cands[:0]
			for i := range funcs {
				ff := &funcs[i]
				if maxLevel[ff.f] < ff.high && lateCalls[ff.f] > 0 {
					cands = append(cands, int32(i))
				}
			}
			a.cands = cands
			slices.SortStableFunc(cands, func(x, y int32) int {
				return cmp.Compare(lateCalls[funcs[y].f], lateCalls[funcs[x].f])
			})
			var used int64
			for _, fi := range cands {
				ff := &funcs[fi]
				if used+ff.ch <= tgap {
					sched = append(sched, sim.CompileEvent{Func: ff.f, Level: ff.high})
					used += ff.ch
				}
			}
		}
	}

	a.sched = sched
	return sched, nil
}

// iarPool recycles arenas behind the package-level IAR function: every
// goroutine that calls IAR concurrently gets its own arena for the duration
// of the call, and the warm buffers survive across calls process-wide. This
// is how the experiment harnesses and runner jobs get per-goroutine arenas
// without any signature change.
var iarPool = sync.Pool{New: func() any { return NewIARArena() }}

// iarCounters aggregates IAR arena activity process-wide; `jitsched exp
// -stats` reports them next to the evaluator's counters, and the obs
// /metrics endpoint mirrors them.
var iarCounters struct {
	arenas     atomic.Int64
	runs       atomic.Int64
	warmRuns   atomic.Int64
	pooledRuns atomic.Int64
}

// IARStats is a snapshot of the process-wide IAR arena counters.
type IARStats struct {
	// Arenas counts NewIARArena calls; Runs counts arena IAR runs, of which
	// WarmRuns reused an already-sized arena (every run after an arena's
	// first) and PooledRuns went through the package-level IAR wrapper's
	// sync.Pool.
	Arenas     int64
	Runs       int64
	WarmRuns   int64
	PooledRuns int64
}

// ReadIARStats snapshots the process-wide IAR arena counters.
func ReadIARStats() IARStats {
	return IARStats{
		Arenas:     iarCounters.arenas.Load(),
		Runs:       iarCounters.runs.Load(),
		WarmRuns:   iarCounters.warmRuns.Load(),
		PooledRuns: iarCounters.pooledRuns.Load(),
	}
}

// Summary renders the stats as one line.
func (s IARStats) Summary() string {
	return fmt.Sprintf("core: %d IAR arenas, %d runs (%d warm, %d pooled)",
		s.Arenas, s.Runs, s.WarmRuns, s.PooledRuns)
}
