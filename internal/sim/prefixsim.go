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
// so each online replan costs O(new calls) rather than O(prefix).
//
// A plan rebuild replays a schedule over the whole prefix in two parts.
// The head — the calls that start before the compile end — runs call by
// call (ExecHead), and so does the one call after it, which may wait for
// the version that finishes at the compile end. From then on every compiled
// function has settled: each call starts at the exec clock and takes its
// function's settled exec time, so the rest of the prefix — the settled
// tail — moves the clock by Σ_f count[f]·exec[f] whatever the calls' order
// (AdvanceSettled), in O(functions), and the starts of chosen tail calls
// are one running sum over a dense column of settled exec times
// (TailStarts). A one-shot plan is the same passes over the whole trace.
//
// # Exactness contract
//
// A PrefixSim that has appended compile events e1..eM (in that order) and
// executed calls c1..cN reports exactly what Evaluator.Run / sim.Run report
// for the static schedule [e1..eM] over the trace [c1..cN] (no arrival
// times, no variation, no recorder): the same call starts, the same
// make-span, the same compile-finish times, tick for tick — whether the
// calls ran through ExecCalls and ExecHead or were counted by
// AdvanceSettled. The differential tests in prefixsim_test.go pin this. The
// simulator keeps no per-call state: ExecCalls and ExecHead append the
// starts of the calls they execute to a buffer the caller owns, so a caller
// that needs only the newest starts, or runs several simulators one after
// another, keeps one buffer for all of them.
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
// than AppendCompile's, AdvanceSettled's and TailStarts' (which leave the
// state untouched) the simulation is mid-step and must be Reset before
// reuse.
type PrefixSim struct {
	own    tables  // the profile as Rebind flattened it
	t      *tables // &own, or the shared table of RebindShared's source
	c      compiled
	pool   workerPool
	dones  []int64
	calls  int   // calls executed
	execT  int64 // the end of the last executed call
	called []bool
	col    []int64 // TailStarts' settled exec times; -1 for an uncompiled function
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
// rebound before reuse. It flattens the profile into the simulator's own
// table, never into one it shared through RebindShared.
func (s *PrefixSim) Rebind(p *profile.Profile, cfg Config) error {
	if cfg.CompileWorkers < 1 {
		return fmt.Errorf("sim: Config.CompileWorkers must be >= 1, got %d", cfg.CompileWorkers)
	}
	if err := s.own.load(p); err != nil {
		return err
	}
	s.bind(&s.own, cfg)
	return nil
}

// RebindShared is Rebind to the profile src was last bound to, reading
// src's flattened table instead of flattening the profile again: several
// simulators of one profile keep one table. The table is read-only to the
// sharer, whose own later Rebind flattens into its own storage. The sharer
// reads whatever src's table holds, so after src is rebound to another
// profile the sharer must be rebound too.
func (s *PrefixSim) RebindShared(src *PrefixSim, cfg Config) error {
	if cfg.CompileWorkers < 1 {
		return fmt.Errorf("sim: Config.CompileWorkers must be >= 1, got %d", cfg.CompileWorkers)
	}
	if src.t == nil {
		return fmt.Errorf("sim: RebindShared from a simulator that was never bound")
	}
	s.bind(src.t, cfg)
	return nil
}

// bind points the simulator at a loaded table and resets it.
func (s *PrefixSim) bind(t *tables, cfg Config) {
	s.t = t
	s.pool.reset(cfg.CompileWorkers)
	s.called = growN(s.called, t.nf)
	s.Reset()
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
	s.c.add(s.t, ev.Func, ev.Level, done)
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
	x := execLoop{c: &s.c, t: s.t, record: true, execT: s.execT, starts: slices.Grow(dst, len(calls))}
	err := x.run(calls, 0)
	s.calls += len(x.starts) - len(dst)
	s.execT = x.execT
	return x.starts, err
}

// ExecHead executes calls in order like ExecCalls, but only those that
// start before the compile end — the head — and returns how many it
// executed; with record set it appends their starts to dst, returning the
// extended slice. Starts never decrease, so it stops at the first call
// that would start at or after the compile end and leaves the rest
// unexecuted. Appending compile events can only move the compile end later;
// passing the unexecuted rest again, with any newly visible calls behind it,
// resumes where the last pass stopped. IAR's init pass runs it without
// recording — Formula 2's n1 counts exactly the calls that start before the
// init schedule's compile end — and a plan rebuild runs it before the
// settled tail.
func (s *PrefixSim) ExecHead(dst []int64, calls []trace.FuncID, record bool) ([]int64, int, error) {
	n := 0
	// Validate a stride at a time: the unexecuted rest can be long, and a
	// pass that stops early must not pay for checking all of it.
	for n < len(calls) {
		chunk := calls[n:min(len(calls), n+interruptStride)]
		for _, f := range chunk {
			if uint(f) >= uint(len(s.called)) {
				return dst, n, unknownCall(f)
			}
		}
		if record {
			dst = slices.Grow(dst, len(chunk))
		}
		x := execLoop{c: &s.c, t: s.t, record: record, execT: s.execT, starts: dst}
		k, err := x.general(chunk, 0, len(chunk), s.c.end)
		s.execT, dst = x.execT, x.starts
		for _, f := range chunk[:k] {
			s.called[f] = true
		}
		n += k
		s.calls += k
		if err != nil || k < len(chunk) {
			return dst, n, err
		}
	}
	return dst, n, nil
}

// AdvanceSettled executes n calls of the settled tail from their
// per-function counts alone: counts[f] calls to function f, in any order.
// At or past the compile end each call starts at the exec clock and takes
// its function's settled exec time, so the order does not matter and the
// clock moves by Σ_f counts[f]·exec[f], in O(len(counts)) whatever n. It
// fails, leaving the state unchanged, unless the counts sum to n, every
// counted function is compiled (an uncompiled one is reported as
// *ErrNoReadyVersion at the exec clock, the tail's first start), and — for
// n > 0 — the exec clock is at or past the compile end.
func (s *PrefixSim) AdvanceSettled(counts []int64, n int) error {
	var sum, span int64
	for f, k := range counts {
		if k == 0 {
			continue
		}
		if k < 0 {
			return fmt.Errorf("sim: settled advance counts %d calls to function %d", k, f)
		}
		if f >= s.t.nf {
			return unknownCall(trace.FuncID(f))
		}
		r := &s.c.tab[f]
		if r.ready < 0 {
			return &ErrNoReadyVersion{Func: trace.FuncID(f), Time: s.execT}
		}
		sum += k
		span += k * r.exec
	}
	if sum != int64(n) {
		return fmt.Errorf("sim: settled advance counts %d calls, want %d", sum, n)
	}
	if n > 0 && s.execT < s.c.end {
		return fmt.Errorf("sim: settled advance at exec clock %d, before the compile end %d", s.execT, s.c.end)
	}
	for f, k := range counts {
		if k > 0 {
			s.called[f] = true
		}
	}
	s.execT += span
	s.calls += n
	return nil
}

// TailStarts appends to dst, without executing anything, the starts that
// tail[at[0]], tail[at[1]], ... would get if tail were the next calls: the
// exec clock plus the settled exec times of the calls before each. The
// positions must not decrease; the clock must be at or past the compile
// end, and every function up to the last asked position compiled. The cost
// is one running sum over a dense column of settled exec times up to the
// last asked position, plus O(functions) to fill the column. On error dst
// comes back with the starts appended so far and the state is unchanged.
func (s *PrefixSim) TailStarts(dst []int64, tail []trace.FuncID, at []int) ([]int64, error) {
	if len(at) == 0 {
		return dst, nil
	}
	if s.execT < s.c.end {
		return dst, fmt.Errorf("sim: tail starts at exec clock %d, before the compile end %d", s.execT, s.c.end)
	}
	col := growN(s.col, s.t.nf)
	s.col = col
	for f := range col {
		col[f] = -1
	}
	for _, f := range s.c.used {
		col[f] = s.c.tab[f].exec
	}
	t, k := s.execT, 0
	for _, p := range at {
		if p < k || p >= len(tail) {
			return dst, fmt.Errorf("sim: tail position %d outside [%d,%d)", p, k, len(tail))
		}
		for ; k < p; k++ {
			f := tail[k]
			if uint(f) >= uint(len(col)) || col[f] < 0 {
				return dst, tailCallErr(f, len(col), t)
			}
			t += col[f]
		}
		if f := tail[p]; uint(f) >= uint(len(col)) || col[f] < 0 {
			return dst, tailCallErr(f, len(col), t)
		}
		dst = append(dst, t)
	}
	return dst, nil
}

// tailCallErr is the error for a settled-tail call at time t to function f,
// which is outside the profile's nf functions or has no compiled version.
func tailCallErr(f trace.FuncID, nf int, t int64) error {
	if uint(f) >= uint(nf) {
		return unknownCall(f)
	}
	return &ErrNoReadyVersion{Func: f, Time: t}
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
