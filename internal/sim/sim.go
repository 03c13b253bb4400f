// Package sim is the make-span measurement framework of §6.1 of the paper:
// given a call sequence, the per-level compile/execute times of the involved
// functions, a compilation schedule, and the number of cores used for
// compilation, it computes the make-span of the execution.
//
// # Timing model
//
// Time is int64 ticks and starts at 0 with the first compilation event.
// One execution worker processes the trace's calls in order. W >= 1
// compilation workers process compile events in queue order (an event may not
// start before it is enqueued, and with several workers each event goes to
// the earliest-free worker). A call to function f:
//
//   - cannot start before some compilation of f has finished (the wait, if
//     any, is a "bubble" in the paper's terms);
//   - runs with the code version of the latest compilation of f that finished
//     at or before the call's start, taking e[f][level] ticks.
//
// The make-span is the finish time of the last call. Compilations still in
// flight at that point do not extend it (they could no longer help anyone),
// which matches the paper's Tgap reasoning in the IAR algorithm's step 4.
//
// These semantics reproduce the worked examples of Figs. 1 and 2 of the paper
// tick for tick; see TestPaperFigure1 and TestPaperFigure2.
package sim

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
)

// CompileEvent is one entry of a compilation schedule: compile Func at Level.
type CompileEvent struct {
	Func  trace.FuncID
	Level profile.Level
}

// Schedule is an ordered compilation sequence — the object OCSP optimizes.
type Schedule []CompileEvent

// Clone returns a copy of the schedule.
func (s Schedule) Clone() Schedule { return append(Schedule(nil), s...) }

// TotalCompileTime sums the schedule's compile times under p.
func (s Schedule) TotalCompileTime(p *profile.Profile) int64 {
	var total int64
	for _, ev := range s {
		total += p.CompileTime(ev.Func, ev.Level)
	}
	return total
}

// Validate checks that every event references a valid function and level and
// that, if tr is non-nil, every called function is compiled at least once.
func (s Schedule) Validate(tr *trace.Trace, p *profile.Profile) error {
	return s.validate(tr, p.Levels, make([]bool, p.NumFuncs()))
}

// validate is Validate for a profile of len(compiled) functions, with
// compiled as scratch.
func (s Schedule) validate(tr *trace.Trace, levels int, compiled []bool) error {
	clear(compiled)
	for i, ev := range s {
		if ev.Func < 0 || int(ev.Func) >= len(compiled) {
			return fmt.Errorf("sim: schedule event %d references unknown function %d", i, ev.Func)
		}
		if ev.Level < 0 || int(ev.Level) >= levels {
			return fmt.Errorf("sim: schedule event %d uses level %d outside [0,%d)", i, ev.Level, levels)
		}
		compiled[ev.Func] = true
	}
	if tr != nil {
		for i, f := range tr.Calls {
			if int(f) >= len(compiled) || !compiled[f] {
				return fmt.Errorf("sim: call %d invokes function %d which the schedule never compiles", i, f)
			}
		}
	}
	return nil
}

// Config selects the machine configuration.
type Config struct {
	// CompileWorkers is the number of compilation threads/cores (>= 1).
	// The execution side is always one worker: the paper flattens even its
	// multithreaded benchmarks into a single call sequence.
	CompileWorkers int
	// Discipline selects how workers pick pending requests in RunPolicy
	// (static Run replays a fixed order and ignores it). The zero value is
	// FIFO, the behaviour of the systems the paper measures.
	Discipline QueueDiscipline
}

// DefaultConfig is the paper's base setting: execution on one core,
// compilation on one other core.
func DefaultConfig() Config { return Config{CompileWorkers: 1} }

// Options toggles optional result detail and per-call effects.
type Options struct {
	// RecordCalls captures per-call start times and code levels.
	RecordCalls bool
	// ExecVariation, when non-zero, scales each call's execution time by a
	// deterministic mean-preserving per-call factor of that magnitude
	// (see CallFactor), modeling the §8 observation that execution times
	// differ across calls. Must lie in [0, 1).
	ExecVariation float64
	// ExecVariationSeed selects the variation realization.
	ExecVariationSeed int64
	// Recorder, when non-nil, receives every compile-start/compile-end/
	// exec-start/exec-end/stall event of the run as a typed span event
	// (see internal/obs). A nil recorder costs nothing: the emit path is
	// allocation-free, held to by BenchmarkRunCallsRecorderOff and
	// TestRecorderDisabledZeroAlloc.
	Recorder *obs.Recorder
	// Interrupt, when non-nil, makes Run, Evaluator.Run and RunPolicy
	// abandon the simulation once the channel is closed (or receives): the
	// execution loop polls it every interruptStride calls and returns
	// ErrInterrupted. This is how a serving layer cancels a long replay —
	// typically wired to a context's Done channel. A nil channel costs
	// nothing; polling never changes the numbers of a run that finishes.
	Interrupt <-chan struct{}
}

// interruptStride is how many calls the execution loop commits between
// Interrupt polls. Interruption only ever aborts a run, so the stride trades
// promptness against per-call overhead without affecting surviving runs.
const interruptStride = 1024

// interrupted is the non-blocking Interrupt poll (a nil channel is never
// ready).
func interrupted(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// validate reports the first Options error, or nil.
func (o Options) validate() error {
	if o.ExecVariation < 0 || o.ExecVariation >= 1 {
		return fmt.Errorf("sim: Options.ExecVariation must be in [0,1), got %g", o.ExecVariation)
	}
	return nil
}

// CompileRecord reports when one schedule event ran.
type CompileRecord struct {
	Event  CompileEvent
	Start  int64
	Done   int64
	Worker int
}

// Result reports a simulated execution.
type Result struct {
	// MakeSpan is the finish time of the last call (0 for an empty trace).
	MakeSpan int64
	// TotalExec is the sum of the executed calls' durations.
	TotalExec int64
	// TotalBubble is the total time the execution worker spent waiting for
	// compilations, including the initial wait before the first call.
	// MakeSpan == TotalExec + TotalBubble always holds.
	TotalBubble int64
	// BubbleCount is the number of calls that had to wait (plus one if the
	// first call waited at time zero, which it almost always does).
	BubbleCount int
	// CompileEnd is when the last compilation event finished; it may exceed
	// MakeSpan if compilations outlive the program.
	CompileEnd int64
	// CompileBusy is the summed busy time of all compilation workers.
	CompileBusy int64
	// Compiles records each schedule event's execution window, in schedule
	// order.
	Compiles []CompileRecord
	// FirstReady[f] is the earliest time any compilation of f finished, or -1
	// if f was never compiled.
	FirstReady []int64
	// CallStarts[i] and CallLevels[i] are per-call detail (only with
	// Options.RecordCalls).
	CallStarts []int64
	CallLevels []profile.Level
	// MaxPending is the largest number of requests simultaneously waiting
	// for a worker (online runs only); FirstBehindRecompiles counts
	// first-time compilation requests that arrived while at least one
	// recompilation was still waiting — the situations where the §7
	// first-compile-first discipline can act.
	MaxPending            int
	FirstBehindRecompiles int
}

// versionList tracks one function's finished compilations ordered by finish
// time, for "latest finished at or before t" lookups. Per-function lists stay
// tiny (one entry per compilation of that function), so linear operations are
// fine.
type versionList struct {
	vs []version
}

// version is one finished compilation.
type version struct {
	done  int64
	level profile.Level
}

func (v *versionList) insert(done int64, l profile.Level) {
	i := len(v.vs)
	for i > 0 && v.vs[i-1].done > done {
		i--
	}
	v.vs = append(v.vs, version{})
	copy(v.vs[i+1:], v.vs[i:])
	v.vs[i] = version{done: done, level: l}
}

// latestAt returns the level of the latest compilation finished at or before
// t, and whether any such version exists. Callers turn ok == false into a
// structured *ErrNoReadyVersion instead of crashing the run.
func (v *versionList) latestAt(t int64) (profile.Level, bool) {
	for i := len(v.vs) - 1; i >= 0; i-- {
		if v.vs[i].done <= t {
			return v.vs[i].level, true
		}
	}
	return 0, false
}

func (v *versionList) firstReady() int64 {
	if len(v.vs) == 0 {
		return -1
	}
	return v.vs[0].done
}

// workerPool assigns jobs to the earliest-free of w workers.
type workerPool struct {
	free []int64 // free[i] is when worker i becomes idle
}

func newWorkerPool(w int) *workerPool { return &workerPool{free: make([]int64, w)} }

// assign runs a job of the given duration arriving at the given time on the
// earliest-free worker and returns (worker, start, done).
func (p *workerPool) assign(arrival, duration int64) (int, int64, int64) {
	best, free := p.earliest()
	start := free
	if arrival > start {
		start = arrival
	}
	done := start + duration
	p.free[best] = done
	return best, start, done
}

// earliest returns the earliest-free worker and its free time.
func (p *workerPool) earliest() (worker int, free int64) {
	best := 0
	for i, f := range p.free {
		if f < p.free[best] {
			best = i
		}
	}
	return best, p.free[best]
}

// set records that worker w is busy until t.
func (p *workerPool) set(w int, t int64) { p.free[w] = t }

// Run replays a static compilation schedule against the trace and returns the
// resulting make-span. All compile events are available at time 0; this is
// the mode in which the paper evaluates IAR, the single-level schemes, and
// any precomputed schedule. Run borrows a pooled Evaluator and returns an
// owned copy of its Result; callers that replay many schedules against one
// workload keep an Evaluator themselves.
func Run(tr *trace.Trace, p *profile.Profile, sched Schedule, cfg Config, opts Options) (*Result, error) {
	e := evalPool.Get().(*Evaluator)
	defer func() {
		e.tr = nil // keep no caller data alive in the pool
		evalPool.Put(e)
	}()
	if err := e.Reset(tr, p); err != nil {
		return nil, err
	}
	res, err := e.Run(sched, cfg, opts)
	if err != nil {
		return nil, err
	}
	out := *res
	out.Compiles, out.FirstReady = slices.Clone(res.Compiles), slices.Clone(res.FirstReady)
	if opts.RecordCalls {
		// Hand the per-call records over rather than copy them; the
		// evaluator allocates fresh ones on its next run.
		e.starts, e.levels = nil, nil
	}
	return &out, nil
}

// evalPool recycles the evaluators behind Run, so that warm arenas survive
// across calls process-wide.
var evalPool = sync.Pool{New: func() any { return new(Evaluator) }}
