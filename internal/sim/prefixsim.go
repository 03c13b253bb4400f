package sim

import (
	"fmt"
	"slices"

	"repro/internal/profile"
	"repro/internal/trace"
)

// PrefixSim is a resumable simulation of a growing instance: compile events
// may be appended to the schedule tail and calls appended to the executed
// trace, in any interleaving, and the simulation advances by exactly the new
// work instead of replaying from time zero. It is IAR's simulator
// (core.IARPlanner): the planner's per-stride state — the init schedule
// following a growing visible prefix, the step-2/step-3 schedules
// re-evaluated over ever more calls — is append-only between plan rebuilds,
// so each online replan costs O(new calls) rather than O(prefix), and a
// one-shot plan is the same passes over the whole trace at once.
//
// # Exactness contract
//
// A PrefixSim that has appended compile events e1..eM (in that order) and
// executed calls c1..cN reports exactly what Evaluator.Run / sim.Run report
// for the static schedule [e1..eM] over the trace [c1..cN] (no arrival
// times, no variation, no recorder): the same call starts, the same
// make-span, the same compile-finish times, tick for tick. The differential
// tests in prefixsim_test.go pin this. The simulator keeps no per-call
// state: ExecCalls appends the starts of the calls it executes to a buffer
// the caller owns, so a caller that needs only the newest starts, or runs
// several simulators one after another, keeps one buffer for all of them.
//
// The contract holds because appending never rewrites history: calls execute
// sequentially, so earlier starts cannot depend on later calls; and a
// compile event appended after some calls have executed is only admitted
// when no executed call could have used it — its function has never executed
// (the replanner's case: a function newly revealed by the stream), or its
// finish time is at or past the execution clock. AppendCompile rejects the
// one shape that would diverge (an already-executed function's event
// finishing in the past) instead of silently producing a non-replayable
// state.
//
// A PrefixSim is not safe for concurrent use. On any returned error other
// than AppendCompile's (which leaves the state untouched) the simulation is
// mid-step and must be Reset before reuse.
type PrefixSim struct {
	t      tables
	c      compiled
	pool   workerPool
	dones  []int64
	calls  int   // calls executed
	execT  int64 // the end of the last executed call
	called []bool
}

// NewPrefixSim builds a resumable simulator for the profile under the given
// machine configuration, with an empty schedule and no executed calls. The
// profile is validated exactly as sim.NewEvaluator validates it.
func NewPrefixSim(p *profile.Profile, cfg Config) (*PrefixSim, error) {
	s := &PrefixSim{}
	if err := s.Rebind(p, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Rebind points the simulator at a new profile and machine configuration,
// with an empty schedule and no executed calls, keeping the arenas. It
// validates exactly as NewPrefixSim does; on error the simulator must be
// rebound before reuse.
func (s *PrefixSim) Rebind(p *profile.Profile, cfg Config) error {
	if cfg.CompileWorkers < 1 {
		return fmt.Errorf("sim: Config.CompileWorkers must be >= 1, got %d", cfg.CompileWorkers)
	}
	if err := s.t.load(p); err != nil {
		return err
	}
	s.pool.reset(cfg.CompileWorkers)
	s.called = growN(s.called, s.t.nf)
	s.Reset()
	return nil
}

// Reset discards the schedule and all executed calls, keeping the arenas, so
// the simulator can replay a different schedule from time zero without
// reallocating.
func (s *PrefixSim) Reset() {
	s.c.reset(s.t.nf)
	clear(s.pool.free)
	clear(s.called)
	s.dones = s.dones[:0]
	s.calls, s.execT = 0, 0
}

// AppendCompile appends one compile event at the schedule tail, assigning it
// to the earliest-free worker with arrival time zero, exactly as the static
// simulators do, and updates the function's settled-table row in O(1). It
// rejects out-of-range events and — see the exactness contract — an event
// for an already-executed function that would have finished before the
// current execution clock. On error the state is unchanged.
func (s *PrefixSim) AppendCompile(ev CompileEvent) error {
	if ev.Func < 0 || int(ev.Func) >= s.t.nf {
		return fmt.Errorf("sim: prefix schedule event references unknown function %d", ev.Func)
	}
	if ev.Level < 0 || int(ev.Level) >= s.t.levels {
		return fmt.Errorf("sim: prefix schedule event uses level %d outside [0,%d)", ev.Level, s.t.levels)
	}
	best, free := s.pool.earliest()
	done := free + s.t.compile(ev.Func, ev.Level)
	if s.called[ev.Func] && done < s.execT {
		return fmt.Errorf("sim: prefix append of function %d finishing at %d would rewrite history before exec clock %d",
			ev.Func, done, s.execT)
	}
	s.pool.free[best] = done
	s.c.add(&s.t, ev.Func, ev.Level, done)
	s.dones = append(s.dones, done)
	return nil
}

// ExecCalls executes the given calls in order, advancing the simulation
// clock through the same exec kernel as Evaluator.Run, and appends each
// call's start to dst, returning the extended slice. A call to a function
// with no appended compilation fails with *ErrNoReadyVersion, as in the
// static simulators.
func (s *PrefixSim) ExecCalls(dst []int64, calls []trace.FuncID) ([]int64, error) {
	called := s.called
	for _, f := range calls {
		if uint(f) >= uint(len(called)) {
			return dst, unknownCall(f)
		}
		called[f] = true
	}
	x := execLoop{c: &s.c, t: &s.t, record: true, execT: s.execT, starts: slices.Grow(dst, len(calls))}
	err := x.run(calls, 0)
	s.calls += len(x.starts) - len(dst)
	s.execT = x.execT
	return x.starts, err
}

// ExecUntilCompileEnd executes calls in order like ExecCalls, but only those
// that start before the compile end, and returns how many it executed,
// recording no starts. Starts never decrease, so it stops at the first call
// that would start at or after the compile end and leaves the rest
// unexecuted. Appending compile events can only move the compile end later;
// passing the unexecuted rest again, with any newly visible calls behind it,
// resumes where the last pass stopped. This is IAR's init pass: Formula 2's
// n1 counts exactly the calls that start before the init schedule's compile
// end, and every call past that point is work the pass skips.
func (s *PrefixSim) ExecUntilCompileEnd(calls []trace.FuncID) (int, error) {
	n := 0
	// Validate a stride at a time: the unexecuted rest can be long, and a
	// pass that stops early must not pay for checking all of it.
	for n < len(calls) {
		chunk := calls[n:min(len(calls), n+interruptStride)]
		for _, f := range chunk {
			if uint(f) >= uint(len(s.called)) {
				return n, unknownCall(f)
			}
		}
		x := execLoop{c: &s.c, t: &s.t, execT: s.execT}
		k, err := x.general(chunk, 0, len(chunk), s.c.end)
		s.execT = x.execT
		for _, f := range chunk[:k] {
			s.called[f] = true
		}
		n += k
		s.calls += k
		if err != nil || k < len(chunk) {
			return n, err
		}
	}
	return n, nil
}

// unknownCall is the error for a call to a function outside the profile.
func unknownCall(f trace.FuncID) error {
	return fmt.Errorf("sim: prefix call invokes unknown function %d", f)
}

// MakeSpan returns the execution clock: the end of the last executed call,
// or 0 before any call.
func (s *PrefixSim) MakeSpan() int64 { return s.execT }

// CompileEnd returns the finish time of the latest-finishing appended
// compile event, or 0 before any event.
func (s *PrefixSim) CompileEnd() int64 { return s.c.end }

// CompileDones returns the finish time of every appended compile event, in
// append order. The slice aliases the simulator and is valid (read-only)
// until the next AppendCompile or Reset.
func (s *PrefixSim) CompileDones() []int64 { return s.dones }

// NumCalls returns how many calls have been executed.
func (s *PrefixSim) NumCalls() int { return s.calls }

// NumCompiles returns how many compile events have been appended.
func (s *PrefixSim) NumCompiles() int { return len(s.dones) }
