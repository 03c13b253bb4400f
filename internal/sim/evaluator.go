package sim

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/profile"
	"repro/internal/trace"
)

// Evaluator is the static-schedule simulator for repeated evaluation over
// one (trace, profile) pair — the inner loop behind the searches and the
// experiment harnesses. sim.Run is a pooled Evaluator.
//
// Construction validates and flattens the profile. Run builds the
// schedule's compile side and runs the trace through the one make-span
// kernel (execLoop), which stores only each call's start; Result.CallLevels
// is filled in a post-pass, only under Options.RecordCalls. After the first
// Run sizes the arenas, a Run performs no heap allocation
// (TestEvaluatorZeroAlloc, TestEvaluatorPerCallBytes).
//
// # Identical-results contract
//
// Evaluator.Run computes exactly what the per-call reference loop in
// reference_test.go computes: same Result fields, same error values, same
// Recorder event stream, tick for tick (evaluator_test.go).
//
// # Delta evaluation
//
// After a successful Run (the baseline), the two schedule edits the search
// algorithms actually make — upgrade one event's level in place, append one
// event at the tail — can be scored without replaying the whole run:
// UpgradedMakeSpan and AppendedMakeSpan rebuild only the compile side (O(M)
// for M events) and resume the execution loop at the first call the edit can
// possibly affect, found by binary search over the baseline call starts.
// MakeSpanOf is the transparent entry point: it diffs a candidate schedule
// against the baseline and takes the incremental path when the candidate is
// one supported edit away, falling back to a full (still allocation-free)
// simulation otherwise.
//
// An Evaluator is not safe for concurrent use; parallel harnesses use one
// evaluator per worker. Results returned by Run alias the evaluator's arena
// and are valid only until the next Run/MakeSpanOf call.
type Evaluator struct {
	tr *trace.Trace
	t  tables

	// Per-run scratch, reused across Run calls.
	c          compiled
	pool       workerPool
	res        Result
	compiles   []CompileRecord
	firstReady []int64
	isCompiled []bool
	starts     []int64 // every call's start in the last Run: the delta baseline
	levels     []profile.Level

	// Baseline of the last successful Run, for delta evaluation.
	baseValid bool
	baseSched Schedule
	baseCfg   Config
	baseOpts  Options
	baseSpan  int64

	// Delta scratch: the edited schedule's compile side is rebuilt here so
	// the baseline's stays untouched.
	d     compiled
	dPool workerPool

	runs int64
}

// NewEvaluator builds an evaluator for the trace/profile pair. The trace is
// treated as immutable from here on.
func NewEvaluator(tr *trace.Trace, p *profile.Profile) (*Evaluator, error) {
	e := &Evaluator{}
	if err := e.Reset(tr, p); err != nil {
		return nil, err
	}
	evalCounters.evaluators.Add(1)
	return e, nil
}

// Reset rebinds the evaluator to a new (trace, profile) pair, reusing every
// arena whose capacity already suffices — the flattened time tables, the
// version lists (including their inner storage), the call starts, and the
// worker pools. It performs the same validation, with the same error
// strings, as NewEvaluator; on error the evaluator is left unusable until a
// successful Reset. Any delta baseline is discarded. This is what lets a
// long-lived evaluator follow new instances without reallocating its buffers
// each rebind.
func (e *Evaluator) Reset(tr *trace.Trace, p *profile.Profile) error {
	e.baseValid = false
	if err := e.t.load(p); err != nil {
		return err
	}
	e.tr = tr
	e.firstReady = growN(e.firstReady, e.t.nf)
	e.isCompiled = growN(e.isCompiled, e.t.nf)
	e.starts = growN(e.starts, tr.Len())[:0]
	return nil
}

// growN resizes a scratch slice to n elements, reusing the backing array when
// it is large enough. Callers overwrite (or clear) the contents themselves.
// It never returns nil, so an empty result reads as empty, not absent.
func growN[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset sizes the pool to w idle workers.
func (p *workerPool) reset(w int) {
	p.free = growN(p.free, w)
	clear(p.free)
}

// Run replays a static compilation schedule: every event is available at
// time zero and goes to the earliest-free of cfg.CompileWorkers workers, in
// schedule order. It reuses the evaluator's arenas; the returned Result is
// valid until the next call on this evaluator.
func (e *Evaluator) Run(sched Schedule, cfg Config, opts Options) (*Result, error) {
	res, err := e.compileSide(sched, cfg, opts)
	if err != nil {
		return nil, err
	}
	x := execLoop{c: &e.c, t: &e.t, mag: opts.ExecVariation, seed: opts.ExecVariationSeed,
		rec: opts.Recorder, intr: opts.Interrupt, record: true, starts: e.starts[:0]}
	err = x.run(e.tr.Calls, 0)
	e.starts = x.starts
	if err != nil {
		return nil, err
	}
	res.MakeSpan = x.execT
	res.TotalBubble, res.BubbleCount = x.bubble, x.stalls
	res.TotalExec = x.execT - x.bubble
	if opts.RecordCalls {
		e.levels = growN(e.levels, len(x.starts))
		for i, f := range e.tr.Calls {
			e.levels[i] = e.c.levelAt(f, x.starts[i])
		}
		res.CallStarts, res.CallLevels = x.starts, e.levels
	}

	e.runs++
	evalCounters.runs.Add(1)
	if e.runs > 1 {
		evalCounters.warmRuns.Add(1)
	}
	if opts.Recorder == nil {
		// A recorded run cannot serve as a delta baseline: the incremental
		// path emits no span events, so it would silently drop them.
		e.baseValid = true
		e.baseSched = append(e.baseSched[:0], sched...)
		e.baseCfg = cfg
		e.baseOpts = opts
		e.baseSpan = res.MakeSpan
	}
	return res, nil
}

// compileSide validates the run's inputs and builds the schedule's compile
// side into the evaluator's arenas, returning the Result with its compile
// fields filled.
func (e *Evaluator) compileSide(sched Schedule, cfg Config, opts Options) (*Result, error) {
	e.baseValid = false
	if cfg.CompileWorkers < 1 {
		return nil, fmt.Errorf("sim: Config.CompileWorkers must be >= 1, got %d", cfg.CompileWorkers)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := sched.validate(e.tr, e.t.levels, e.isCompiled); err != nil {
		return nil, err
	}

	res := &e.res
	*res = Result{Compiles: growN(e.compiles, 0), FirstReady: e.firstReady}
	e.c.reset(e.t.nf)
	e.pool.reset(cfg.CompileWorkers)
	rec := opts.Recorder
	for si, ev := range sched {
		w, start, done := e.pool.assign(0, e.t.compile(ev.Func, ev.Level))
		res.Compiles = append(res.Compiles, CompileRecord{Event: ev, Start: start, Done: done, Worker: w})
		rec.CompileStart(start, int32(ev.Func), int32(ev.Level), int32(w), int32(si))
		rec.CompileEnd(done, int32(ev.Func), int32(ev.Level), int32(w), int32(si))
		e.c.add(&e.t, ev.Func, ev.Level, done)
		res.CompileBusy += done - start
	}
	res.CompileEnd = e.c.end
	e.compiles = res.Compiles
	for f := range e.firstReady {
		e.firstReady[f] = e.c.tab[f].ready
	}
	return res, nil
}

// EditKind selects one of the two schedule edits with an incremental path.
type EditKind int

const (
	// EditUpgrade changes the level of one existing event in place.
	EditUpgrade EditKind = iota
	// EditAppend adds one event at the tail of the schedule.
	EditAppend
)

// Edit describes a single-event schedule edit relative to the baseline.
type Edit struct {
	Kind EditKind
	// Pos is the edited event's index (EditUpgrade only).
	Pos int
	// Event is the new event: for EditUpgrade its Func must match the
	// baseline event at Pos.
	Event CompileEvent
}

// MakeSpanOf evaluates a candidate schedule's make-span, taking the
// incremental delta path when the candidate differs from the last Run's
// schedule by exactly one supported edit (one in-place level change, or one
// appended tail event) under the same configuration, and transparently
// falling back to a full — still allocation-free — simulation otherwise.
// The fallback replaces the baseline with the candidate run.
func (e *Evaluator) MakeSpanOf(sched Schedule, cfg Config, opts Options) (int64, error) {
	if e.baseValid && cfg == e.baseCfg && opts.Recorder == nil &&
		opts.ExecVariation == e.baseOpts.ExecVariation &&
		opts.ExecVariationSeed == e.baseOpts.ExecVariationSeed {
		if ed, kind := e.diff(sched); kind != diffFar {
			evalCounters.deltaFast.Add(1)
			if kind == diffSame {
				return e.baseSpan, nil
			}
			return e.editedMakeSpan(ed)
		}
	}
	evalCounters.deltaFull.Add(1)
	res, err := e.Run(sched, cfg, opts)
	if err != nil {
		return 0, err
	}
	return res.MakeSpan, nil
}

const (
	diffSame = iota // identical to the baseline schedule
	diffEdit        // exactly one supported edit away
	diffFar         // anything else: full simulation required
)

// diff classifies a candidate schedule against the baseline.
func (e *Evaluator) diff(sched Schedule) (Edit, int) {
	base := e.baseSched
	switch {
	case len(sched) == len(base):
		pos := -1
		for i := range sched {
			if sched[i] != base[i] {
				if pos >= 0 || sched[i].Func != base[i].Func {
					return Edit{}, diffFar
				}
				pos = i
			}
		}
		if pos < 0 {
			return Edit{}, diffSame
		}
		if sched[pos].Level < 0 || int(sched[pos].Level) >= e.t.levels {
			return Edit{}, diffFar
		}
		return Edit{Kind: EditUpgrade, Pos: pos, Event: sched[pos]}, diffEdit
	case len(sched) == len(base)+1:
		for i := range base {
			if sched[i] != base[i] {
				return Edit{}, diffFar
			}
		}
		ev := sched[len(base)]
		if ev.Func < 0 || int(ev.Func) >= e.t.nf || ev.Level < 0 || int(ev.Level) >= e.t.levels {
			return Edit{}, diffFar
		}
		return Edit{Kind: EditAppend, Event: ev}, diffEdit
	}
	return Edit{}, diffFar
}

// UpgradedMakeSpan returns the make-span of the baseline schedule with event
// pos's level changed to level, computed incrementally. It requires a prior
// successful Run on this evaluator.
func (e *Evaluator) UpgradedMakeSpan(pos int, level profile.Level) (int64, error) {
	if !e.baseValid {
		return 0, fmt.Errorf("sim: evaluator has no baseline run for delta evaluation")
	}
	if pos < 0 || pos >= len(e.baseSched) {
		return 0, fmt.Errorf("sim: delta upgrade position %d outside schedule of %d events", pos, len(e.baseSched))
	}
	if level < 0 || int(level) >= e.t.levels {
		return 0, fmt.Errorf("sim: delta upgrade level %d outside [0,%d)", level, e.t.levels)
	}
	evalCounters.deltaFast.Add(1)
	return e.editedMakeSpan(Edit{Kind: EditUpgrade, Pos: pos,
		Event: CompileEvent{Func: e.baseSched[pos].Func, Level: level}})
}

// AppendedMakeSpan returns the make-span of the baseline schedule with ev
// appended at the tail, computed incrementally. It requires a prior
// successful Run on this evaluator.
func (e *Evaluator) AppendedMakeSpan(ev CompileEvent) (int64, error) {
	if !e.baseValid {
		return 0, fmt.Errorf("sim: evaluator has no baseline run for delta evaluation")
	}
	if ev.Func < 0 || int(ev.Func) >= e.t.nf {
		return 0, fmt.Errorf("sim: delta append references unknown function %d", ev.Func)
	}
	if ev.Level < 0 || int(ev.Level) >= e.t.levels {
		return 0, fmt.Errorf("sim: delta append uses level %d outside [0,%d)", ev.Level, e.t.levels)
	}
	evalCounters.deltaFast.Add(1)
	return e.editedMakeSpan(Edit{Kind: EditAppend, Event: ev})
}

// editedMakeSpan computes the edited schedule's make-span by rebuilding the
// compile side in the delta scratch and resuming the execution loop at the
// first call the edit can affect.
//
// Correctness: let tAffect be the minimum over all events whose finished
// version changed of min(old finish, new finish). Every recorded call start
// is >= its function's first-ready time, so a call with start < tAffect saw
// only versions finishing at or before its start — all unchanged — and its
// start, level, and end are identical in the edited run. The loop therefore
// resumes at the first baseline call start >= tAffect (binary search; starts
// are non-decreasing) with the predecessor's end as the exec clock: its
// start plus its duration at the level the baseline's compile side, still
// intact, gives it.
func (e *Evaluator) editedMakeSpan(ed Edit) (int64, error) {
	e.d.reset(e.t.nf)
	e.dPool.reset(e.baseCfg.CompileWorkers)

	const inf = int64(1) << 62
	tAffect := inf
	for j, ev := range e.baseSched {
		level := ev.Level
		if ed.Kind == EditUpgrade && j == ed.Pos {
			level = ed.Event.Level
		}
		_, _, done := e.dPool.assign(0, e.t.compile(ev.Func, level))
		e.d.add(&e.t, ev.Func, level, done)
		old := e.compiles[j].Done
		// A shifted finish time affects calls from min(old, new) on; a level
		// change with an unshifted finish still swaps the version visible
		// from that finish time on.
		if done != old || level != ev.Level {
			m := done
			if old < m {
				m = old
			}
			if m < tAffect {
				tAffect = m
			}
		}
	}
	if ed.Kind == EditAppend {
		_, _, done := e.dPool.assign(0, e.t.compile(ed.Event.Func, ed.Event.Level))
		e.d.add(&e.t, ed.Event.Func, ed.Event.Level, done)
		if done < tAffect {
			tAffect = done
		}
	}
	if tAffect == inf {
		return e.baseSpan, nil
	}

	calls := e.tr.Calls
	idx, _ := slices.BinarySearch(e.starts, tAffect)
	if idx == len(calls) {
		return e.baseSpan, nil
	}
	mag, seed := e.baseOpts.ExecVariation, e.baseOpts.ExecVariationSeed
	x := execLoop{c: &e.d, t: &e.t, mag: mag, seed: seed}
	if idx > 0 {
		f, start := calls[idx-1], e.starts[idx-1]
		dur := e.t.exec(f, e.c.levelAt(f, start))
		if mag > 0 {
			dur = scaleDuration(dur, CallFactor(seed, idx-1, mag))
		}
		x.execT = start + dur
	}
	if err := x.run(calls, idx); err != nil {
		return 0, err
	}
	return x.execT, nil
}

// evalCounters aggregates evaluator activity process-wide; `jitsched exp
// -stats` reports them next to the runner's counters.
var evalCounters struct {
	evaluators atomic.Int64
	runs       atomic.Int64
	warmRuns   atomic.Int64
	deltaFast  atomic.Int64
	deltaFull  atomic.Int64
}

// EvalStats is a snapshot of the process-wide evaluator counters.
type EvalStats struct {
	// Evaluators counts NewEvaluator calls; Runs counts Evaluator.Run calls,
	// of which WarmRuns hit fully warmed arenas (every run after an
	// evaluator's first).
	Evaluators int64
	Runs       int64
	WarmRuns   int64
	// DeltaFast counts schedule evaluations answered by the incremental
	// delta path; DeltaFull counts MakeSpanOf calls that fell back to a full
	// simulation.
	DeltaFast int64
	DeltaFull int64
}

// ReadEvalStats snapshots the process-wide evaluator counters.
func ReadEvalStats() EvalStats {
	return EvalStats{
		Evaluators: evalCounters.evaluators.Load(),
		Runs:       evalCounters.runs.Load(),
		WarmRuns:   evalCounters.warmRuns.Load(),
		DeltaFast:  evalCounters.deltaFast.Load(),
		DeltaFull:  evalCounters.deltaFull.Load(),
	}
}

// Summary renders the stats as one line.
func (s EvalStats) Summary() string {
	return fmt.Sprintf("sim: %d evaluators, %d runs (%d warm), delta evals %d fast / %d full-fallback",
		s.Evaluators, s.Runs, s.WarmRuns, s.DeltaFast, s.DeltaFull)
}
