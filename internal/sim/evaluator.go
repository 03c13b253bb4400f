package sim

import (
	"fmt"
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
// kernel (execLoop). Only under Options.RecordCalls does the kernel store
// each call's start, and a post-pass fill Result.CallLevels; a plain Run
// keeps no per-call state. After the first Run sizes the arenas, a Run
// performs no heap allocation (TestEvaluatorZeroAlloc,
// TestEvaluatorPerCallBytes).
//
// # Identical-results contract
//
// Evaluator.Run computes exactly what the per-call reference loop in
// reference_test.go computes: same Result fields, same error values, same
// Recorder event stream, tick for tick (evaluator_test.go).
//
// An Evaluator is not safe for concurrent use; parallel harnesses use one
// evaluator per worker. Results returned by Run alias the evaluator's arena
// and are valid only until the next Run.
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
	starts     []int64 // Result.CallStarts under Options.RecordCalls
	levels     []profile.Level

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
// version lists (including their inner storage), the per-call records, and
// the worker pool. It performs the same validation, with the same error
// strings, as NewEvaluator; on error the evaluator is left unusable until a
// successful Reset. This is what lets a long-lived evaluator follow new
// instances without reallocating its buffers each rebind.
func (e *Evaluator) Reset(tr *trace.Trace, p *profile.Profile) error {
	if err := e.t.load(p); err != nil {
		return err
	}
	e.tr = tr
	e.firstReady = growN(e.firstReady, e.t.nf)
	e.isCompiled = growN(e.isCompiled, e.t.nf)
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
		rec: opts.Recorder, intr: opts.Interrupt, record: opts.RecordCalls}
	if opts.RecordCalls {
		// Sized for every call, so the kernel's appends never reallocate.
		e.starts = growN(e.starts, e.tr.Len())[:0]
		x.starts = e.starts
	}
	if err := x.run(e.tr.Calls, 0); err != nil {
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
	return res, nil
}

// compileSide validates the run's inputs and builds the schedule's compile
// side into the evaluator's arenas, returning the Result with its compile
// fields filled.
func (e *Evaluator) compileSide(sched Schedule, cfg Config, opts Options) (*Result, error) {
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

// evalCounters aggregates evaluator activity process-wide; `jitsched exp
// -stats` reports them next to the runner's counters.
var evalCounters struct {
	evaluators atomic.Int64
	runs       atomic.Int64
	warmRuns   atomic.Int64
}

// EvalStats is a snapshot of the process-wide evaluator counters.
type EvalStats struct {
	// Evaluators counts NewEvaluator calls; Runs counts Evaluator.Run calls,
	// of which WarmRuns hit fully warmed arenas (every run after an
	// evaluator's first).
	Evaluators int64
	Runs       int64
	WarmRuns   int64
	// DeltaFast and DeltaFull always read 0. They stay because the
	// end-to-end benchmark reads them; a change to that benchmark removes
	// them.
	DeltaFast int64
	DeltaFull int64
}

// ReadEvalStats snapshots the process-wide evaluator counters.
func ReadEvalStats() EvalStats {
	return EvalStats{
		Evaluators: evalCounters.evaluators.Load(),
		Runs:       evalCounters.runs.Load(),
		WarmRuns:   evalCounters.warmRuns.Load(),
	}
}

// Summary renders the stats as one line.
func (s EvalStats) Summary() string {
	return fmt.Sprintf("sim: %d evaluators, %d runs (%d warm)", s.Evaluators, s.Runs, s.WarmRuns)
}
