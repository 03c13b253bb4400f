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
// work instead of replaying from time zero. It is the online engine's
// simulator — online.Run commits each event at the exec clock and runs each
// call as one ExecCall step — and IAR's (core.IARPlanner): the planner's
// per-stride state — the init schedule following a growing visible prefix,
// the step-2/step-3 schedules re-evaluated over ever more calls — is
// append-only between plan rebuilds, so each online replan costs O(new
// calls) rather than O(prefix).
//
// A plan rebuild changes the schedule, so it does not append: it rewinds
// the simulation to the first event where the old and new schedules differ,
// keeping the head calls that ended before that event could start (Rewind),
// appends the new events from there, and replays the prefix from the kept
// calls on in two parts. The head — the calls that start before the compile
// end — runs call by call (ExecHead), and so does the one call after it,
// which may wait for the version that finishes at the compile end. From
// then on every compiled function has settled: each call starts at the exec
// clock and takes its function's settled exec time, so the rest of the
// prefix — the settled tail — moves the clock by Σ_f count[f]·exec[f]
// whatever the calls' order (AdvanceSettled), in O(functions), and the
// starts of chosen tail calls are one running sum over a dense column of
// settled exec times (TailStarts). A one-shot plan is the same passes over
// the whole trace from an empty simulation.
//
// # Exactness contract
//
// A PrefixSim that has appended compile events e1..eM (in that order) and
// executed calls c1..cN reports exactly what Evaluator.Run / sim.Run report
// for the static schedule [e1..eM] over the trace [c1..cN] (no variation, no
// recorder): the same call starts, the same make-span, bubbles and stalls,
// the same compile records, tick for tick — whether the calls ran through
// ExecCall, ExecCalls and ExecHead or were counted by AdvanceSettled. That holds as
// stated when every event arrives at time zero (AppendCompile), the static
// simulators' setting. With arrival times (AppendCompileAt) it is the same
// model with each event starting no earlier than its arrival — a compile
// goes to the earliest-free worker and starts at the later of that worker's
// free time and its arrival — which is how online.Run commits events at the
// exec clock. The differential tests in prefixsim_test.go pin the static
// case and internal/online's reference test the arrival case. The
// simulator keeps no per-call state: ExecCalls and ExecHead append the
// starts of the calls they execute to a buffer the caller owns, so a caller
// that needs only the newest starts, or runs several simulators one after
// another, keeps one buffer for all of them.
//
// The contract holds because appending never rewrites history: calls execute
// sequentially, so earlier starts cannot depend on later calls; and a
// compile event appended after some calls have executed is only admitted
// when no executed call could have used it — its function has no version
// finished by the execution clock, so no executed call can have run it (the
// replanner's case: a function newly revealed by the stream), or its finish
// time is at or past the clock (always so for an event arriving at the
// clock, online.Run's case). AppendCompileAt rejects the other shape — an
// event finishing before the clock for a function with a version finished
// by then — instead of risking a non-replayable state; it keeps no per-call
// record of which functions ran, so it also refuses such an event for a
// function that never ran, which no caller appends.
//
// Rewind is the one step that removes history, and it keeps the contract:
// rewound to its first i events and k calls, the simulator is exactly one
// that appended e1..ei and executed c1..ck — the same clock, bubbles and
// stalls, worker pool and version lists — so whatever
// is appended and executed after it is covered as above. It keeps only
// calls that ended by the time the first dropped event could start, so no
// kept call saw a dropped version and no appended event can rewrite a kept
// call. TestPrefixSimRewind diffs a rewound simulation at every event
// boundary against a fresh replay.
//
// A PrefixSim is not safe for concurrent use. On any returned error other
// than AppendCompileAt's, Rewind's, AdvanceSettled's and TailStarts' (which
// leave the state untouched) the simulation is mid-step and must be Reset
// before reuse.
type PrefixSim struct {
	own   tables  // the profile as Rebind flattened it
	t     *tables // &own, or the shared table of RebindShared's source
	c     compiled
	pool  workerPool
	fns   []trace.FuncID // the appended events' functions, in append order
	dones []int64
	calls int // calls executed
	// x is the kernel's state between steps: the exec clock (the end of
	// the last executed call), the executed calls' bubble total and stall
	// count, and the stall log Rewind restores those two from.
	x     execLoop
	col   []int64  // TailStarts' settled exec times; -1 for an uncompiled function
	start [1]int64 // ExecCall's start
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
	s.x = execLoop{c: &s.c, t: t, logStalls: true, stallLog: s.x.stallLog[:0]}
	s.pool.reset(cfg.CompileWorkers)
	// A schedule compiles each function about once; sized for that, the
	// event arrays rarely grow.
	s.fns, s.dones = slices.Grow(s.fns[:0], t.nf), slices.Grow(s.dones[:0], t.nf)
	s.Reset()
}

// Reset discards the schedule and all executed calls, keeping the arenas, so
// the simulator can replay a different schedule from time zero without
// reallocating.
func (s *PrefixSim) Reset() {
	s.c.reset(s.t.nf)
	clear(s.pool.free)
	s.fns, s.dones = s.fns[:0], s.dones[:0]
	s.calls = 0
	s.x.execT, s.x.bubble, s.x.stalls = 0, 0, 0
}

// AppendCompile is AppendCompileAt with arrival time zero, the static
// simulators' setting, without the record.
func (s *PrefixSim) AppendCompile(ev CompileEvent) error { return s.appendAt(ev, 0) }

// AppendCompileAt appends one compile event at the schedule tail, arriving
// at the given time: it goes to the earliest-free worker and starts at the
// later of that worker's free time and its arrival. It updates the
// function's settled-table row in O(1) and returns the event's compile
// record. It rejects out-of-range events and — see the exactness contract —
// an event that would finish before the current execution clock for a
// function with a version finished by then. On error the state is
// unchanged.
func (s *PrefixSim) AppendCompileAt(ev CompileEvent, arrival int64) (CompileRecord, error) {
	// The worker appendAt picks is the one earliest free now.
	w, free := s.pool.earliest()
	if err := s.appendAt(ev, arrival); err != nil {
		return CompileRecord{}, err
	}
	return CompileRecord{Event: ev, Start: max(free, arrival), Done: s.dones[len(s.dones)-1], Worker: w}, nil
}

// appendAt is AppendCompileAt without the record. Returning only the error
// keeps the planner's append path, AppendCompile, as cheap as it was before
// arrivals.
func (s *PrefixSim) appendAt(ev CompileEvent, arrival int64) error {
	if ev.Func < 0 || int(ev.Func) >= s.t.nf {
		return fmt.Errorf("sim: prefix schedule event references unknown function %d", ev.Func)
	}
	if ev.Level < 0 || int(ev.Level) >= s.t.levels {
		return fmt.Errorf("sim: prefix schedule event uses level %d outside [0,%d)", ev.Level, s.t.levels)
	}
	best, free := s.pool.earliest()
	done := max(free, arrival) + s.t.compile(ev.Func, ev.Level)
	if ready := s.c.tab[ev.Func].ready; ready >= 0 && ready <= s.x.execT && done < s.x.execT {
		return fmt.Errorf("sim: prefix append of function %d finishing at %d would rewrite history before exec clock %d",
			ev.Func, done, s.x.execT)
	}
	s.pool.free[best] = done
	s.c.add(s.t, ev.Func, ev.Level, done)
	s.fns = append(s.fns, ev.Func)
	s.dones = append(s.dones, done)
	return nil
}

// Rewind rolls the simulation back to its first i compile events and to
// the longest run of its first calls that no later event can affect, and
// returns how many calls it kept: the state is then exactly the one
// appending those events and executing those calls gives. calls and starts
// are the caller's record of the first executed calls and their starts, as
// ExecCalls, ExecCall and ExecHead returned them. The record may stop short
// of NumCalls, and it stops at the latest at the first call AdvanceSettled
// counted, which has no recorded start. The kept calls are the recorded
// ones that start before, and end at or before, the free time: the
// earliest-free worker's free time once the kept events are placed, where
// every dropped event started and every event appended next will start at
// the earliest. So no kept call saw a dropped version or can see a new
// one, and each new event passes the history check: appending the new
// events and executing the calls after the kept ones is a fresh replay of
// the kept events, the new ones and all the calls (the exactness contract).
//
// Nothing is re-executed. The cost is O(i·workers) to replay the worker
// pool over the kept finish times, O(1) per dropped event (O(versions) in
// the worst case), O(functions compiled) and a binary search over the
// record. On error — i outside [0, NumCompiles], a record whose calls and
// starts differ in length, or one longer than NumCalls — the state is
// unchanged.
func (s *PrefixSim) Rewind(i int, calls []trace.FuncID, starts []int64) (int, error) {
	if i < 0 || i > len(s.dones) {
		return 0, fmt.Errorf("sim: rewind to %d events outside [0,%d]", i, len(s.dones))
	}
	if len(calls) != len(starts) || len(starts) > s.calls {
		return 0, fmt.Errorf("sim: rewind record of %d calls and %d starts with %d calls executed",
			len(calls), len(starts), s.calls)
	}
	clear(s.pool.free)
	var end int64
	for _, d := range s.dones[:i] {
		w, _ := s.pool.earliest()
		s.pool.free[w] = d
		end = max(end, d)
	}
	_, free := s.pool.earliest()

	// Starts never decrease, so the calls starting before free are a prefix;
	// of those only the last can end past it.
	k, _ := slices.BinarySearch(starts, free)
	if k > 0 && s.callEnd(calls[k-1], starts[k-1]) > free {
		k--
	}
	var execT int64
	if k > 0 {
		execT = s.callEnd(calls[k-1], starts[k-1])
	}

	for j := len(s.dones) - 1; j >= i; j-- {
		s.c.remove(s.t, s.fns[j], s.dones[j])
	}
	// used is in first-version order, so the functions left without a
	// version — those first compiled by a dropped event — are its tail.
	used := s.c.used
	for len(used) > 0 && s.c.tab[used[len(used)-1]].ready < 0 {
		used = used[:len(used)-1]
	}
	s.c.used, s.c.end = used, end
	s.fns, s.dones = s.fns[:i], s.dones[:i]

	log, n := s.x.stallLog, s.x.stalls
	for n > 0 && (k == 0 || log[n-1].start > starts[k-1]) {
		n--
	}
	s.x.stalls, s.x.bubble = n, 0
	if n > 0 {
		s.x.bubble = log[n-1].bubble
	}
	s.x.execT, s.calls = execT, k
	return k, nil
}

// callEnd is the end of an executed call to f that started at t: its start
// plus its exec time at the level it ran at.
func (s *PrefixSim) callEnd(f trace.FuncID, t int64) int64 {
	return t + s.t.exec(f, s.c.levelAt(f, t))
}

// ExecCalls executes the given calls in order, advancing the simulation
// clock through the same exec kernel as Evaluator.Run, and appends each
// call's start to dst, returning the extended slice. A call to a function
// with no appended compilation fails with *ErrNoReadyVersion, as in the
// static simulators.
func (s *PrefixSim) ExecCalls(dst []int64, calls []trace.FuncID) ([]int64, error) {
	for _, f := range calls {
		if uint(f) >= uint(s.t.nf) {
			return dst, unknownCall(f)
		}
	}
	x := &s.x
	x.record, x.starts = true, slices.Grow(dst, len(calls))
	err := x.run(calls, 0)
	s.calls += len(x.starts) - len(dst)
	dst, x.starts = x.starts, nil
	return dst, err
}

// ExecCall executes one call like ExecCalls and returns its start. It is
// the online engine's step, one call between two scheduler decisions, and
// takes the kernel's general step alone: ExecCalls' settled-tail loop pays
// off only over a run of calls.
func (s *PrefixSim) ExecCall(f trace.FuncID) (int64, error) {
	if uint(f) >= uint(s.t.nf) {
		return 0, unknownCall(f)
	}
	x := &s.x
	x.record, x.starts = true, s.start[:0]
	if _, err := x.general([]trace.FuncID{f}, 0, 1, neverDone); err != nil {
		return 0, err
	}
	s.calls++
	return s.start[0], nil
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
			if uint(f) >= uint(s.t.nf) {
				return dst, n, unknownCall(f)
			}
		}
		if record && cap(dst)-len(dst) < len(chunk) {
			// Double, not append's 1.25x: a head record is a long slice
			// grown a stride at a time.
			dst = slices.Grow(dst, max(len(chunk), len(dst)))
		}
		x := &s.x
		x.record, x.starts = record, dst
		k, err := x.general(chunk, 0, len(chunk), s.c.end)
		dst, x.starts = x.starts, nil
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
			return &ErrNoReadyVersion{Func: trace.FuncID(f), Time: s.x.execT}
		}
		sum += k
		span += k * r.exec
	}
	if sum != int64(n) {
		return fmt.Errorf("sim: settled advance counts %d calls, want %d", sum, n)
	}
	if n > 0 && s.x.execT < s.c.end {
		return fmt.Errorf("sim: settled advance at exec clock %d, before the compile end %d", s.x.execT, s.c.end)
	}
	s.x.execT += span
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
	if s.x.execT < s.c.end {
		return dst, fmt.Errorf("sim: tail starts at exec clock %d, before the compile end %d", s.x.execT, s.c.end)
	}
	col := growN(s.col, s.t.nf)
	s.col = col
	for f := range col {
		col[f] = -1
	}
	for _, f := range s.c.used {
		col[f] = s.c.tab[f].exec
	}
	t, k := s.x.execT, 0
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
func (s *PrefixSim) MakeSpan() int64 { return s.x.execT }

// CompileEnd returns the finish time of the latest-finishing appended
// compile event, or 0 before any event.
func (s *PrefixSim) CompileEnd() int64 { return s.c.end }

// CompileDones returns the finish time of every appended compile event, in
// append order. The slice aliases the simulator and is valid (read-only)
// until the next AppendCompile, Rewind or Reset.
func (s *PrefixSim) CompileDones() []int64 { return s.dones }

// Bubble returns the executed calls' summed waits for their functions' first
// versions and how many calls waited: sim.Result's TotalBubble and
// BubbleCount. Calls counted by AdvanceSettled never wait.
func (s *PrefixSim) Bubble() (total int64, stalls int) { return s.x.bubble, s.x.stalls }

// FirstReady returns the finish time of f's earliest-finishing appended
// compile event, or -1 if none has been appended: sim.Result's FirstReady.
func (s *PrefixSim) FirstReady(f trace.FuncID) int64 { return s.c.tab[f].ready }

// LevelAt returns the level a call to f starting at t runs at under the
// events appended so far — the latest finished at or before t — which must
// include one: sim.Result's CallLevels. Asked right after ExecCall ran the
// call, it is the level the call ran at.
func (s *PrefixSim) LevelAt(f trace.FuncID, t int64) profile.Level { return s.c.levelAt(f, t) }

// NumCalls returns how many calls have been executed.
func (s *PrefixSim) NumCalls() int { return s.calls }

// NumCompiles returns how many compile events have been appended.
func (s *PrefixSim) NumCompiles() int { return len(s.dones) }
