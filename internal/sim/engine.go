package sim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Request is a compilation request issued by an online policy during the
// simulated run.
type Request struct {
	Func  trace.FuncID
	Level profile.Level
}

// QueueDiscipline selects how compilation workers pick the next request
// from the pending queue.
type QueueDiscipline int

const (
	// FIFO serves requests strictly in arrival order — the discipline of
	// the runtime systems the paper evaluates (Jikes RVM enqueues
	// compilation tasks and processes them in order, §2).
	FIFO QueueDiscipline = iota
	// FirstCompileFirst lets first-time compilations overtake queued
	// recompilations. This implements the §7 insight: "the first-time
	// compilation of a method should generally get a higher priority than
	// recompilations of other methods", because execution blocks on first
	// compilations but merely slows down waiting for recompilations.
	FirstCompileFirst
)

// String implements fmt.Stringer.
func (d QueueDiscipline) String() string {
	switch d {
	case FIFO:
		return "fifo"
	case FirstCompileFirst:
		return "first-compile-first"
	default:
		return fmt.Sprintf("QueueDiscipline(%d)", int(d))
	}
}

// Policy is an online compilation scheduler: the decision logic of a real
// runtime system (Jikes RVM's sampling-driven recompiler, V8's
// second-invocation promotion, plain on-demand compilation). Unlike a static
// Schedule, a Policy reacts to the execution as it unfolds, and its requests
// join the compile queue at the simulated time they are made.
//
// A Policy is single-use: the engine feeds one run through it. Implementations
// keep per-run state (hotness counters, invocation counts) internally.
// Requested levels must lie within the profile's level range. The engine
// reads a slice returned by BeforeCall or Sample before its next call into
// the policy, so an implementation may return one buffer it reuses.
//
// The engine calls BeforeCall only for the first BeforeCallLimit()
// invocations of each function, and never for later ones: a policy declares
// how far into a function's call count its decisions reach (V8 promotes at
// the second invocation, so its limit is 2; a sampling-driven policy needs
// none, so 0). That is what lets the engine run a stretch of calls to
// settled functions without a call into the policy per call. A policy that
// must see every call returns math.MaxInt64.
type Policy interface {
	// FirstCall is invoked when execution reaches a function that has never
	// been requested. The returned level is compiled as a blocking request:
	// the call waits until the function is ready. now is the request time.
	FirstCall(f trace.FuncID, now int64) profile.Level

	// BeforeCall is invoked before each of a function's first
	// BeforeCallLimit() calls, with nth the 1-based count of this
	// function's invocations so far (including this one). Returned requests
	// are enqueued at time now without blocking the call.
	BeforeCall(f trace.FuncID, nth int64, now int64) []Request

	// BeforeCallLimit returns how many leading invocations of each function
	// BeforeCall must see; a limit <= 0 means it sees none.
	BeforeCallLimit() int64

	// Sample is invoked at every sampling tick that lands during the
	// execution of a call, identifying the function on the (simulated) call
	// stack, as Jikes RVM's timer-based sampler does. Returned requests are
	// enqueued at time now.
	Sample(f trace.FuncID, now int64) []Request

	// SamplePeriod returns the wall-clock distance between sampling ticks in
	// ticks, or 0 to disable sampling.
	SamplePeriod() int64
}

// pendingReq is a compilation request waiting for a worker.
type pendingReq struct {
	f       trace.FuncID
	level   profile.Level
	arrival int64
	first   bool // a first-time compilation (execution blocks on it)
	seq     int  // arrival order tie-break
}

// reqHeap is a min-heap of pending requests on (arrival, seq).
type reqHeap []pendingReq

func (h reqHeap) less(i, j int) bool {
	if h[i].arrival != h[j].arrival {
		return h[i].arrival < h[j].arrival
	}
	return h[i].seq < h[j].seq
}

func (h *reqHeap) push(r pendingReq) {
	s := append(*h, r)
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if !s.less(i, up) {
			break
		}
		s[i], s[up] = s[up], s[i]
		i = up
	}
	*h = s
}

func (h *reqHeap) pop() pendingReq {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if m+1 < n && s.less(m+1, m) {
			m++
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// compileQueue holds the requests waiting for a worker in two min-heaps on
// (arrival, seq). Under FirstCompileFirst heaps[0] holds first compilations
// and heaps[1] recompilations; under FIFO every request is in heaps[0].
// Arrivals need not be monotone (RunPolicyMT's are not).
type compileQueue struct {
	discipline QueueDiscipline
	heaps      [2]reqHeap
	recompiles int // pending recompilations, under either discipline
}

func (q *compileQueue) reset(d QueueDiscipline) {
	q.discipline = d
	q.heaps[0], q.heaps[1] = q.heaps[0][:0], q.heaps[1][:0]
	q.recompiles = 0
}

func (q *compileQueue) len() int { return len(q.heaps[0]) + len(q.heaps[1]) }

func (q *compileQueue) push(r pendingReq) {
	h := 0
	if !r.first {
		q.recompiles++
		if q.discipline == FirstCompileFirst {
			h = 1
		}
	}
	q.heaps[h].push(r)
}

// next picks the heap whose head a worker idle at time t should take, or -1
// if the queue is empty. Among requests arrived by t the discipline's
// highest-priority one wins (a first compilation under FirstCompileFirst,
// then the earliest arrival, then insertion order); if none has arrived,
// the earliest arrival, first compilations winning ties (the worker waits
// for it).
func (q *compileQueue) next(t int64) int {
	a, b := q.heaps[0], q.heaps[1]
	switch {
	case len(b) == 0:
		if len(a) == 0 {
			return -1
		}
		return 0
	case len(a) == 0:
		return 1
	case a[0].arrival <= t:
		return 0
	case b[0].arrival <= t:
		return 1
	case a[0].arrival <= b[0].arrival:
		return 0
	default:
		return 1
	}
}

func (q *compileQueue) pop(h int) pendingReq {
	r := q.heaps[h].pop()
	if !r.first {
		q.recompiles--
	}
	return r
}

// fnRequests is one function's policy-side counters.
type fnRequests struct {
	calls int64         // invocations so far, across threads, up to the policy's BeforeCallLimit
	max   profile.Level // highest level requested; -1 before the first request
}

// noAssign is the engine's next commit time while the queue is empty.
const noAssign = math.MaxInt64

// engine is the online engine behind RunPolicy and RunPolicyMT. Its compile
// side is the kernel's settled table (compiled) over the flattened profile
// (tables); the queue is resolved lazily: because policies only emit
// requests while execution progresses, all future arrivals are unknown until
// the execution side advances, so assignments are materialized on demand,
// never past the currently known arrivals. nextAt caches when the next
// assignment would commit; only a push or an assignment changes it. Engines
// are pooled: their arenas survive across runs.
type engine struct {
	t      tables
	c      compiled
	pool   workerPool
	queue  compileQueue
	fns    []fnRequests
	nextAt int64 // commit time of the next assignment; noAssign if none
	seq    int
	res    Result
	rec    *obs.Recorder

	// drainOnEnqueue makes enqueue materialize every assignment startable
	// by a request's arrival before queueing it (RunPolicy's rule, which
	// keeps the queue-pressure statistics to what is genuinely waiting).
	drainOnEnqueue bool
}

var enginePool = sync.Pool{New: func() any { return new(engine) }}

// acquireEngine borrows a pooled engine and resets it for a run of the
// profile under cfg, validating the profile as sim.Run does.
func acquireEngine(p *profile.Profile, cfg Config, rec *obs.Recorder) (*engine, error) {
	e := enginePool.Get().(*engine)
	if err := e.t.load(p); err != nil {
		e.release()
		return nil, err
	}
	e.c.reset(e.t.nf)
	e.pool.reset(cfg.CompileWorkers)
	e.queue.reset(cfg.Discipline)
	e.fns = growN(e.fns, e.t.nf)
	for f := range e.fns {
		e.fns[f] = fnRequests{max: -1}
	}
	e.nextAt, e.seq = noAssign, 0
	e.res = Result{Compiles: e.res.Compiles[:0]}
	e.rec = rec
	e.drainOnEnqueue = false
	return e, nil
}

// release returns the engine to the pool, keeping no caller data alive.
func (e *engine) release() {
	e.rec = nil
	enginePool.Put(e)
}

// enqueue queues a policy request for f at level l arriving at arrival.
// Requests for a level not above the highest already requested for f are
// dropped (a JIT never downgrades, and duplicates coalesce in the queue).
func (e *engine) enqueue(f trace.FuncID, l profile.Level, arrival int64) error {
	if l < 0 || int(l) >= e.t.levels {
		return fmt.Errorf("sim: policy requested level %d for function %d outside [0,%d)", l, f, e.t.levels)
	}
	fr := &e.fns[f]
	if l <= fr.max {
		return nil
	}
	if e.drainOnEnqueue {
		e.drainArrived(arrival)
	}
	first := fr.max < 0
	fr.max = l
	e.seq++
	if first && e.queue.recompiles > 0 {
		e.res.FirstBehindRecompiles++
	}
	e.queue.push(pendingReq{f: f, level: l, arrival: arrival, first: first, seq: e.seq})
	e.res.MaxPending = max(e.res.MaxPending, e.queue.len())
	e.updateNextAt()
	return nil
}

// updateNextAt recomputes when the next assignment would commit: the
// earliest-free worker's free time or the chosen request's arrival,
// whichever is later.
func (e *engine) updateNextAt() {
	_, free := e.pool.earliest()
	h := e.queue.next(free)
	if h < 0 {
		e.nextAt = noAssign
		return
	}
	e.nextAt = max(free, e.queue.heaps[h][0].arrival)
}

// drainOne materializes the next assignment if any request is pending.
// Returns false when the queue is empty.
func (e *engine) drainOne() bool {
	w, free := e.pool.earliest()
	h := e.queue.next(free)
	if h < 0 {
		return false
	}
	r := e.queue.pop(h)
	start := max(free, r.arrival)
	done := start + e.t.compile(r.f, r.level)
	e.pool.set(w, done)
	seq := int32(len(e.res.Compiles))
	e.res.Compiles = append(e.res.Compiles, CompileRecord{
		Event: CompileEvent{Func: r.f, Level: r.level}, Start: start, Done: done, Worker: w,
	})
	e.rec.CompileStart(start, int32(r.f), int32(r.level), int32(w), seq)
	e.rec.CompileEnd(done, int32(r.f), int32(r.level), int32(w), seq)
	e.c.add(&e.t, r.f, r.level, done)
	e.res.CompileBusy += done - start
	e.updateNextAt()
	return true
}

// drainArrived materializes every assignment that commits at or before t,
// so that version lookups at time t see all relevant completions.
func (e *engine) drainArrived(t int64) {
	for e.nextAt <= t {
		e.drainOne()
	}
}

// drainUntilReady materializes assignments until function f has at least one
// finished-or-in-flight version, i.e. a known ready time. Sound while the
// execution side is blocked on f: a blocked executor generates no further
// arrivals, so the pending set is complete. If the queue runs dry before f
// has a version the simulated machine would hang forever; that inconsistency
// is reported as a *DeadlockError naming the blocked function instead of
// crashing the worker. Its Pending list is empty: drainOne fails only on an
// empty queue.
func (e *engine) drainUntilReady(f trace.FuncID, now int64) error {
	for e.c.tab[f].ready < 0 {
		if !e.drainOne() {
			return &DeadlockError{Func: f, Time: now}
		}
	}
	return nil
}

// version returns the level and exec time of a call to f starting at t,
// after drainArrived(t): the settled entry once t reaches f's last finish
// time, else the version-list lookup.
func (e *engine) version(f trace.FuncID, t int64) (profile.Level, int64, error) {
	r := &e.c.tab[f]
	if t >= r.last {
		return r.level, r.exec, nil
	}
	l, ok := r.versions.latestAt(t)
	if !ok {
		return 0, 0, &ErrNoReadyVersion{Func: f, Time: t}
	}
	return l, e.t.exec(f, l), nil
}

// quiet executes calls[i:stop] from exec clock execT while each call is
// quiet — nothing can happen during it but the clock advancing: its function
// has settled by the clock (so the call neither waits nor needs a version
// lookup) and has had its BeforeCall hooks, no commit is due by the clock
// (nothing enqueues during a stretch, so nextAt stays put), and no sampling
// tick lands before the call's end (sampleAt is the next tick). It returns
// the index of the first call not executed and the clock after the last
// executed one.
func (e *engine) quiet(calls []trace.FuncID, i, stop int, execT, sampleAt, limit int64) (int, int64) {
	tab, fns, nextAt := e.c.tab, e.fns, e.nextAt
	for ; i < stop; i++ {
		f := calls[i]
		r := &tab[f]
		end := execT + r.exec
		if r.last > execT || execT >= nextAt || end > sampleAt || fns[f].calls < limit {
			break
		}
		execT = end
	}
	return i, execT
}

// result drains the queue and returns an owned copy of the compile side of
// the run's Result.
func (e *engine) result() *Result {
	for e.drainOne() {
	}
	res := e.res
	res.Compiles = nil
	if len(e.res.Compiles) > 0 {
		res.Compiles = slices.Clone(e.res.Compiles)
	}
	res.CompileEnd = e.c.end
	res.FirstReady = make([]int64, e.t.nf)
	for f := range res.FirstReady {
		res.FirstReady[f] = e.c.tab[f].ready
	}
	return &res
}

// RunPolicy drives the trace through an online policy and returns the
// resulting make-span together with the compilation sequence the policy
// produced (available as Result.Compiles, in compilation-start order).
//
// Engine-side rules, matching the runtime systems the paper describes:
//
//   - Requests for a function at a level not above the highest level already
//     requested for it are dropped (a JIT never downgrades, and duplicate
//     requests coalesce in the queue).
//   - cfg.CompileWorkers workers serve the queue under cfg.Discipline; a
//     request may not start before its arrival time.
//
// Without a Recorder, execution-time variation or RecordCalls, a run of
// quiet calls (see engine.quiet) advances the exec clock in a tight loop
// over the settled table, as the static kernel's tail does; every other
// call takes the general step.
func RunPolicy(tr *trace.Trace, p *profile.Profile, pol Policy, cfg Config, opts Options) (*Result, error) {
	if cfg.CompileWorkers < 1 {
		return nil, fmt.Errorf("sim: Config.CompileWorkers must be >= 1, got %d", cfg.CompileWorkers)
	}
	if cfg.Discipline != FIFO && cfg.Discipline != FirstCompileFirst {
		return nil, fmt.Errorf("sim: unknown queue discipline %d", cfg.Discipline)
	}
	if pol == nil {
		return nil, fmt.Errorf("sim: RunPolicy needs a non-nil policy")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	e, err := acquireEngine(p, cfg, opts.Recorder)
	if err != nil {
		return nil, err
	}
	defer e.release()
	e.drainOnEnqueue = true
	if err := tr.Validate(e.t.nf); err != nil {
		return nil, err
	}
	period := pol.SamplePeriod()
	if period < 0 {
		return nil, fmt.Errorf("sim: policy sample period must be >= 0, got %d", period)
	}
	limit := pol.BeforeCallLimit()
	nextSample := period // first sampling tick fires at t = period

	var starts []int64
	var levels []profile.Level
	record := opts.RecordCalls
	if record {
		starts = make([]int64, 0, tr.Len())
		levels = make([]profile.Level, 0, tr.Len())
	}
	tab, fns, rec, intr := e.c.tab, e.fns, e.rec, opts.Interrupt
	mag, seed := opts.ExecVariation, opts.ExecVariationSeed
	quiet := mag == 0 && rec == nil && !record
	calls := tr.Calls
	var execT, bubble int64
	var stalls int
	for i := 0; i < len(calls); {
		if intr != nil && i%interruptStride == 0 && interrupted(intr) {
			return nil, ErrInterrupted
		}
		if quiet {
			// The stretch stops at the next interrupt poll.
			stop := min(len(calls), (i/interruptStride+1)*interruptStride)
			i, execT = e.quiet(calls, i, stop, execT, sampleAt(period, nextSample), limit)
			if i == stop {
				continue
			}
		}
		f := calls[i]
		fr := &fns[f]
		if fr.calls < limit {
			fr.calls++
			for _, r := range pol.BeforeCall(f, fr.calls, execT) {
				if err := e.enqueue(r.Func, r.Level, execT); err != nil {
					return nil, err
				}
			}
		}
		if fr.max < 0 {
			if err := e.enqueue(f, pol.FirstCall(f, execT), execT); err != nil {
				return nil, err
			}
		}
		row := &tab[f]
		if row.ready < 0 {
			if err := e.drainUntilReady(f, execT); err != nil {
				return nil, err
			}
		}
		start := execT
		if row.ready > start {
			bubble += row.ready - start
			stalls++
			rec.Stall(start, row.ready-start, int32(f), int32(i))
			start = row.ready
		}
		// Make sure every compilation that finishes by the call's start is
		// materialized, then pick the latest finished version.
		e.drainArrived(start)
		level, dur := row.level, row.exec
		if start < row.last {
			var err error
			if level, dur, err = e.version(f, start); err != nil {
				return nil, err
			}
		}
		if mag > 0 {
			dur = scaleDuration(dur, CallFactor(seed, i, mag))
		}
		end := start + dur
		if rec != nil {
			rec.ExecStart(start, int32(f), int32(level), int32(i))
			rec.ExecEnd(end, int32(f), int32(level), int32(i))
		}
		if period > 0 {
			// Sampling ticks that land during this call observe f on the
			// stack; ticks that land in a bubble observe nothing and pass.
			for nextSample < start {
				nextSample += period
			}
			for nextSample < end {
				for _, r := range pol.Sample(f, nextSample) {
					if err := e.enqueue(r.Func, r.Level, nextSample); err != nil {
						return nil, err
					}
				}
				nextSample += period
			}
		}
		if record {
			starts = append(starts, start)
			levels = append(levels, level)
		}
		execT = end
		i++
	}
	res := e.result()
	res.MakeSpan, res.TotalBubble, res.BubbleCount = execT, bubble, stalls
	res.TotalExec = execT - bubble
	res.CallStarts, res.CallLevels = starts, levels
	return res, nil
}

// sampleAt is the time of the next sampling tick, or never without sampling.
func sampleAt(period, nextSample int64) int64 {
	if period == 0 {
		return noAssign
	}
	return nextSample
}

// ScheduleOf extracts the compilation sequence a run produced, in the order
// the events started compiling. Replaying it with Run generally gives a
// different (usually better) make-span, because replay makes all events
// available at time zero; the paper's comparison of scheduling schemes is
// about exactly this gap.
func (r *Result) ScheduleOf() Schedule {
	s := make(Schedule, len(r.Compiles))
	for i, c := range r.Compiles {
		s[i] = c.Event
	}
	return s
}
