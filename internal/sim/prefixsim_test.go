package sim

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/profile"
	"repro/internal/trace"
)

// randPrefixInstance builds a random profile and a trace whose functions
// appear in a randomized order with skewed call counts.
func randPrefixInstance(rng *rand.Rand, nf, levels, nCalls int) (*profile.Profile, []trace.FuncID) {
	p := &profile.Profile{Levels: levels}
	for f := 0; f < nf; f++ {
		ft := profile.FuncTimes{}
		c, e := int64(1+rng.Intn(50)), int64(5+rng.Intn(100))
		for l := 0; l < levels; l++ {
			ft.Compile = append(ft.Compile, c)
			ft.Exec = append(ft.Exec, e)
			c += int64(1 + rng.Intn(200)) // compile cost grows with level
			e -= e / int64(2+rng.Intn(3)) // exec cost shrinks
			if e < 1 {
				e = 1
			}
		}
		p.Funcs = append(p.Funcs, ft)
	}
	calls := make([]trace.FuncID, nCalls)
	for i := range calls {
		calls[i] = trace.FuncID(rng.Intn(nf))
	}
	return p, calls
}

// randStaticSchedule compiles every function at level 0 and about half of
// them again at a random higher level.
func randStaticSchedule(rng *rand.Rand, p *profile.Profile) Schedule {
	var sched Schedule
	for f := 0; f < p.NumFuncs(); f++ {
		sched = append(sched, CompileEvent{Func: trace.FuncID(f), Level: 0})
		if p.Levels > 1 && rng.Intn(2) == 0 {
			sched = append(sched, CompileEvent{Func: trace.FuncID(f), Level: profile.Level(1 + rng.Intn(p.Levels-1))})
		}
	}
	return sched
}

// comparePrefix checks the resumable simulator, and the starts its ExecCalls
// appended, against a from-scratch reference run of the same
// (schedule, calls) sub-instance.
func comparePrefix(t *testing.T, s *PrefixSim, starts []int64, p *profile.Profile, sched Schedule, calls []trace.FuncID, cfg Config) {
	t.Helper()
	// The reference validates that every called function is compiled; the
	// interleavings under test maintain that invariant by construction.
	res, err := refRun(trace.New("ref", calls), p, sched, cfg, Options{RecordCalls: true})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if s.MakeSpan() != res.MakeSpan {
		t.Fatalf("at %d events/%d calls: MakeSpan %d, want %d",
			s.NumCompiles(), s.NumCalls(), s.MakeSpan(), res.MakeSpan)
	}
	if s.CompileEnd() != res.CompileEnd {
		t.Fatalf("at %d events/%d calls: CompileEnd %d, want %d",
			s.NumCompiles(), s.NumCalls(), s.CompileEnd(), res.CompileEnd)
	}
	if s.NumCalls() != len(calls) || len(starts) != len(res.CallStarts) {
		t.Fatalf("%d call starts, want %d", len(starts), len(res.CallStarts))
	}
	for i := range starts {
		if starts[i] != res.CallStarts[i] {
			t.Fatalf("call %d starts at %d, want %d", i, starts[i], res.CallStarts[i])
		}
	}
	if bubble, stalls := s.Bubble(); bubble != res.TotalBubble || stalls != res.BubbleCount {
		t.Fatalf("bubble %d over %d stalls, want %d over %d", bubble, stalls, res.TotalBubble, res.BubbleCount)
	}
	for f, want := range res.FirstReady {
		if got := s.FirstReady(trace.FuncID(f)); got != want {
			t.Fatalf("function %d first ready at %d, want %d", f, got, want)
		}
	}
	for i, f := range calls {
		if got := s.LevelAt(f, starts[i]); got != res.CallLevels[i] {
			t.Fatalf("call %d ran at level %d, want %d", i, got, res.CallLevels[i])
		}
	}
	dones := s.CompileDones()
	if len(dones) != len(res.Compiles) {
		t.Fatalf("%d compile dones, want %d", len(dones), len(res.Compiles))
	}
	for i := range dones {
		if dones[i] != res.Compiles[i].Done {
			t.Fatalf("event %d done at %d, want %d", i, dones[i], res.Compiles[i].Done)
		}
	}
}

// TestPrefixSimStaticSchedule: append the whole schedule up front, then
// execute the calls in random chunks — the step-2/step-3 usage — checking
// against a from-scratch run after every chunk.
func TestPrefixSimStaticSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		workers := 1 + rng.Intn(3)
		cfg := Config{CompileWorkers: workers}
		p, calls := randPrefixInstance(rng, 2+rng.Intn(10), 1+rng.Intn(4), 120)
		sched := randStaticSchedule(rng, p)
		s, err := NewPrefixSim(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range sched {
			if err := s.AppendCompile(ev); err != nil {
				t.Fatal(err)
			}
		}
		var starts []int64
		done := 0
		for done < len(calls) {
			n := 1 + rng.Intn(40)
			if done+n > len(calls) {
				n = len(calls) - done
			}
			if starts, err = s.ExecCalls(starts, calls[done:done+n]); err != nil {
				t.Fatal(err)
			}
			done += n
			comparePrefix(t, s, starts, p, sched, calls[:done], cfg)
		}
	}
}

// TestPrefixSimInterleaved: reveal functions as the stream reaches them —
// the init-schedule usage — appending each function's compile event just
// before its first call executes, and checking the full state against a
// from-scratch run of the appended-so-far schedule after every chunk.
func TestPrefixSimInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		workers := 1 + rng.Intn(2)
		cfg := Config{CompileWorkers: workers}
		p, calls := randPrefixInstance(rng, 2+rng.Intn(8), 2, 100)
		s, err := NewPrefixSim(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sched Schedule
		var starts []int64
		seen := make([]bool, p.NumFuncs())
		done := 0
		for done < len(calls) {
			n := 1 + rng.Intn(25)
			if done+n > len(calls) {
				n = len(calls) - done
			}
			chunk := calls[done : done+n]
			for _, f := range chunk {
				if !seen[f] {
					seen[f] = true
					ev := CompileEvent{Func: f, Level: 0}
					if err := s.AppendCompile(ev); err != nil {
						t.Fatal(err)
					}
					sched = append(sched, ev)
				}
			}
			if starts, err = s.ExecCalls(starts, chunk); err != nil {
				t.Fatal(err)
			}
			done += n
			comparePrefix(t, s, starts, p, sched, calls[:done], cfg)
		}
	}
}

// TestPrefixSimReset: a Reset simulator replays a different schedule over
// the same arenas with from-scratch results.
func TestPrefixSimReset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, calls := randPrefixInstance(rng, 6, 3, 80)
	cfg := Config{CompileWorkers: 1}
	s, err := NewPrefixSim(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		s.Reset()
		var sched Schedule
		for f := 0; f < p.NumFuncs(); f++ {
			sched = append(sched, CompileEvent{Func: trace.FuncID(f), Level: profile.Level(round % p.Levels)})
		}
		for _, ev := range sched {
			if err := s.AppendCompile(ev); err != nil {
				t.Fatal(err)
			}
		}
		starts, err := s.ExecCalls(nil, calls)
		if err != nil {
			t.Fatal(err)
		}
		comparePrefix(t, s, starts, p, sched, calls, cfg)
	}
}

// TestPrefixSimRejectsHistoryRewrite: appending an event for an
// already-executed function that finishes before the exec clock is refused,
// leaving the state intact; one finishing after the clock is accepted.
func TestPrefixSimRejectsHistoryRewrite(t *testing.T) {
	p := &profile.Profile{
		Levels: 2,
		Funcs: []profile.FuncTimes{
			{Name: "f", Compile: []int64{1, 3}, Exec: []int64{100, 10}},
		},
	}
	s, err := NewPrefixSim(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCompile(CompileEvent{Func: 0, Level: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecCalls(nil, []trace.FuncID{0, 0}); err != nil {
		t.Fatal(err)
	}
	// Exec clock is 201; a level-1 compile on the single worker would finish
	// at 1+3 = 4, i.e. inside executed history.
	if err := s.AppendCompile(CompileEvent{Func: 0, Level: 1}); err == nil {
		t.Fatal("history-rewriting append accepted")
	}
	if s.NumCompiles() != 1 || s.CompileEnd() != 1 || s.MakeSpan() != 201 {
		t.Fatalf("rejected append mutated state: %d events, compileEnd %d, makeSpan %d",
			s.NumCompiles(), s.CompileEnd(), s.MakeSpan())
	}
	// Out-of-range events are rejected too.
	if err := s.AppendCompile(CompileEvent{Func: 1, Level: 0}); err == nil {
		t.Fatal("unknown function accepted")
	}
	if err := s.AppendCompile(CompileEvent{Func: 0, Level: 9}); err == nil {
		t.Fatal("unknown level accepted")
	}
	// A call to a never-compiled function surfaces as ErrNoReadyVersion.
	s2, err := NewPrefixSim(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.ExecCalls(nil, []trace.FuncID{0}); err == nil {
		t.Fatal("call without any compilation accepted")
	}
	s2.Reset()
	var nr *ErrNoReadyVersion
	if _, err := s2.ExecCall(0); !errors.As(err, &nr) {
		t.Fatalf("one call without any compilation: got %v, want ErrNoReadyVersion", err)
	}
	if _, err := s2.ExecCall(1); err == nil {
		t.Fatal("one call to an unknown function accepted")
	}
	if s2.NumCalls() != 0 || s2.MakeSpan() != 0 {
		t.Fatalf("failed calls moved the simulation to span %d after %d calls", s2.MakeSpan(), s2.NumCalls())
	}
}

// TestPrefixSimAppendCompileAt: an event arriving at time a starts on the
// earliest-free worker no earlier than a, its record says so, and an
// arrival at the exec clock always passes the history check.
func TestPrefixSimAppendCompileAt(t *testing.T) {
	p := &profile.Profile{
		Levels: 2,
		Funcs: []profile.FuncTimes{
			{Name: "f", Compile: []int64{1, 3}, Exec: []int64{100, 10}},
			{Name: "g", Compile: []int64{5, 50}, Exec: []int64{20, 2}},
		},
	}
	s, err := NewPrefixSim(p, Config{CompileWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	appendAt := func(ev CompileEvent, arrival int64, want CompileRecord) {
		t.Helper()
		rec, err := s.AppendCompileAt(ev, arrival)
		if err != nil {
			t.Fatal(err)
		}
		if rec != want {
			t.Fatalf("AppendCompileAt(%+v, %d) = %+v, want %+v", ev, arrival, rec, want)
		}
	}
	appendAt(CompileEvent{Func: 0, Level: 0}, 0, CompileRecord{Event: CompileEvent{Func: 0, Level: 0}, Start: 0, Done: 1, Worker: 0})
	appendAt(CompileEvent{Func: 1, Level: 1}, 0, CompileRecord{Event: CompileEvent{Func: 1, Level: 1}, Start: 0, Done: 50, Worker: 1})
	starts, err := s.ExecCalls(nil, []trace.FuncID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// f runs 1..101 at level 0; g's version is done at 50, so g starts at
	// the exec clock 101 and runs at level 1 until 103.
	if !slices.Equal(starts, []int64{1, 101}) || s.MakeSpan() != 103 {
		t.Fatalf("starts %v, make-span %d; want [1 101], 103", starts, s.MakeSpan())
	}
	// Worker 0 is free from 1, so the arrival at the clock sets the start.
	appendAt(CompileEvent{Func: 0, Level: 1}, 103, CompileRecord{Event: CompileEvent{Func: 0, Level: 1}, Start: 103, Done: 106, Worker: 0})
	// Worker 1, free since 50, is now the earliest.
	appendAt(CompileEvent{Func: 1, Level: 0}, 104, CompileRecord{Event: CompileEvent{Func: 1, Level: 0}, Start: 104, Done: 109, Worker: 1})
	if starts, err = s.ExecCalls(starts, []trace.FuncID{0, 1}); err != nil {
		t.Fatal(err)
	}
	// f at 103 still runs level 0 (level 1 lands at 106); g at 203 runs the
	// level-0 version finished at 109, the latest at or before its start.
	if !slices.Equal(starts, []int64{1, 101, 103, 203}) || s.MakeSpan() != 223 {
		t.Fatalf("starts %v, make-span %d; want [1 101 103 203], 223", starts, s.MakeSpan())
	}
	if s.LevelAt(0, 103) != 0 || s.LevelAt(1, 203) != 0 || s.FirstReady(0) != 1 || s.FirstReady(1) != 50 {
		t.Fatalf("levels %d, %d and first-ready %d, %d; want 0, 0 and 1, 50",
			s.LevelAt(0, 103), s.LevelAt(1, 203), s.FirstReady(0), s.FirstReady(1))
	}
	if bubble, stalls := s.Bubble(); bubble != 1 || stalls != 1 {
		t.Fatalf("bubble %d over %d stalls, want 1 over 1", bubble, stalls)
	}
	// An event arriving in the past starts when its worker frees up: this
	// one would run 106..107 on worker 0, inside executed history.
	if _, err := s.AppendCompileAt(CompileEvent{Func: 0, Level: 0}, 0); err == nil {
		t.Fatal("history-rewriting append accepted")
	}
}

// runSettled replays calls over sched on s, reset, the way a plan rebuild
// does: ExecHead recording the head's starts, the one call after the head
// through ExecCalls, TailStarts for the asked positions past those, and
// AdvanceSettled over the rest from its per-function call counts. ask holds
// non-decreasing positions in calls; it returns their starts and the
// head's length.
func runSettled(s *PrefixSim, sched Schedule, calls []trace.FuncID, ask []int) ([]int64, int, error) {
	s.Reset()
	for _, ev := range sched {
		if err := s.AppendCompile(ev); err != nil {
			return nil, 0, err
		}
	}
	starts, h, err := s.ExecHead(nil, calls, true)
	if err != nil {
		return nil, h, err
	}
	if h < len(calls) {
		start, err := s.ExecCall(calls[h])
		if err != nil {
			return nil, h, err
		}
		starts = append(starts, start)
	}
	var got []int64
	var at []int
	for _, p := range ask {
		if p < len(starts) {
			got = append(got, starts[p])
		} else {
			at = append(at, p-len(starts))
		}
	}
	tail := calls[len(starts):]
	if got, err = s.TailStarts(got, tail, at); err != nil {
		return nil, h, err
	}
	counts := make([]int64, s.t.nf)
	for _, f := range tail {
		counts[f]++
	}
	return got, h, s.AdvanceSettled(counts, len(tail))
}

// checkSettled holds the plan-rebuild path (runSettled) to ExecCalls over
// the same schedule and calls: the make-span, the call count, the head's
// length (the calls starting before the compile end) and the start at every
// asked position must agree. Both simulators then execute the calls once
// more through ExecCalls — a fast replan's extension after a rebuild — and
// must still agree start for start. It returns the head's length.
func checkSettled(t *testing.T, tag string, p *profile.Profile, sched Schedule, calls []trace.FuncID, cfg Config, ask []int) int {
	t.Helper()
	ref, err := NewPrefixSim(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range sched {
		if err := ref.AppendCompile(ev); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.ExecCalls(nil, calls)
	if err != nil {
		t.Fatalf("%s: ExecCalls: %v", tag, err)
	}
	s, err := NewPrefixSim(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, h, err := runSettled(s, sched, calls, ask)
	if err != nil {
		t.Fatalf("%s: settled path: %v", tag, err)
	}
	wantH := 0
	for wantH < len(want) && want[wantH] < ref.CompileEnd() {
		wantH++
	}
	if s.MakeSpan() != ref.MakeSpan() || s.NumCalls() != ref.NumCalls() || h != wantH {
		t.Fatalf("%s: settled path: span %d, %d calls, head %d; ExecCalls: span %d, %d calls, head %d",
			tag, s.MakeSpan(), s.NumCalls(), h, ref.MakeSpan(), ref.NumCalls(), wantH)
	}
	for i, p := range ask {
		if got[i] != want[p] {
			t.Fatalf("%s: call %d starts at %d on the settled path, %d under ExecCalls", tag, p, got[i], want[p])
		}
	}
	more, err := s.ExecCalls(nil, calls)
	if err != nil {
		t.Fatal(err)
	}
	wantMore, err := ref.ExecCalls(nil, calls)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(more, wantMore) || s.MakeSpan() != ref.MakeSpan() {
		t.Fatalf("%s: extension after the settled advance differs from ExecCalls'", tag)
	}
	return h
}

// TestPrefixSimSettledTail: on random schedules, with one and three compile
// workers, the head plus the settled advance plus the tail-starts query
// equal ExecCalls, asked at random positions (repeats included) and at
// every function's first call — the positions IAR's slack table reads.
func TestPrefixSimSettledTail(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, workers := range []int{1, 3} {
		cfg := Config{CompileWorkers: workers}
		heads, tails := 0, 0
		for trial := 0; trial < 60; trial++ {
			p, calls := randPrefixInstance(rng, 2+rng.Intn(10), 1+rng.Intn(4), rng.Intn(250))
			sched := randStaticSchedule(rng, p)
			var ask []int
			for i := range calls {
				if rng.Intn(8) == 0 {
					ask = append(ask, i)
					if rng.Intn(4) == 0 {
						ask = append(ask, i)
					}
				}
			}
			h := checkSettled(t, "random", p, sched, calls, cfg, ask)
			seen := make([]bool, p.NumFuncs())
			var first []int
			for i, f := range calls {
				if !seen[f] {
					seen[f] = true
					first = append(first, i)
				}
			}
			checkSettled(t, "first calls", p, sched, calls, cfg, first)
			if h == len(calls) {
				heads++
			} else if h+1 < len(calls) {
				tails++
			}
		}
		// Both shapes must occur, or the trials test one path only.
		if heads == 0 || tails == 0 {
			t.Fatalf("workers %d: %d whole-prefix heads and %d settled tails in 60 trials", workers, heads, tails)
		}
	}
}

// settledEdgeProfile: f0 compiles fast at level 0; f1's first version
// finishes last on one worker; f2 is never scheduled by the edge cases.
var settledEdgeProfile = &profile.Profile{
	Levels: 2,
	Funcs: []profile.FuncTimes{
		{Name: "f0", Compile: []int64{1, 40}, Exec: []int64{4, 1}},
		{Name: "f1", Compile: []int64{50, 90}, Exec: []int64{3, 2}},
		{Name: "f2", Compile: []int64{2, 3}, Exec: []int64{5, 5}},
	},
}

// TestPrefixSimSettledTailEdges pins the plan-rebuild path's boundary
// shapes against ExecCalls.
func TestPrefixSimSettledTailEdges(t *testing.T) {
	p, cfg := settledEdgeProfile, DefaultConfig()
	base := Schedule{{Func: 0, Level: 0}, {Func: 1, Level: 0}} // f0 ready at 1, f1 at 51
	all := func(n int) []int {
		at := make([]int, n)
		for i := range at {
			at[i] = i
		}
		return at
	}
	for _, tc := range []struct {
		name  string
		sched Schedule
		calls []trace.FuncID
		head  int
	}{
		// f0 runs at 1 and 5; f1 waits from 9 to its version at the compile
		// end, 51, and the tail runs settled behind it.
		{"boundary call waits for the compile end", base, []trace.FuncID{0, 0, 1, 0, 1, 0}, 2},
		// The boundary call is the last call: the settled advance is empty.
		{"empty tail", base, []trace.FuncID{0, 0, 1}, 2},
		// f0's level-1 recompile finishes at 91, after every call.
		{"head covers the whole prefix", append(base.Clone(), CompileEvent{Func: 0, Level: 1}), []trace.FuncID{0, 0, 0}, 3},
		{"empty trace", base, nil, 0},
	} {
		if h := checkSettled(t, tc.name, p, tc.sched, tc.calls, cfg, all(len(tc.calls))); h != tc.head {
			t.Errorf("%s: head of %d calls, want %d", tc.name, h, tc.head)
		}
	}

	// The boundary call starts exactly at the compile end.
	s, err := NewPrefixSim(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runSettled(s, base, []trace.FuncID{0, 0, 1, 0}, []int{2})
	if err != nil || got[0] != s.CompileEnd() || got[0] != 51 {
		t.Fatalf("boundary start %v, %v; want the compile end 51", got, err)
	}
}

// TestPrefixSimSettledTailErrors: the settled advance and the tail-starts
// query refuse a count vector that misses calls or counts negatively, a tail calling
// an uncompiled function, and a clock still before the compile end — each
// leaving the simulation unchanged.
func TestPrefixSimSettledTailErrors(t *testing.T) {
	p := settledEdgeProfile
	s, err := NewPrefixSim(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range (Schedule{{Func: 0, Level: 0}, {Func: 1, Level: 0}}) {
		if err := s.AppendCompile(ev); err != nil {
			t.Fatal(err)
		}
	}
	calls := []trace.FuncID{0, 0, 1, 0, 2}
	_, h, err := s.ExecHead(nil, calls, false)
	if err != nil || h != 2 {
		t.Fatalf("head = %d, %v; want 2, nil", h, err)
	}
	unchanged := func(what string, span int64, n int) {
		t.Helper()
		if s.MakeSpan() != span || s.NumCalls() != n {
			t.Fatalf("%s moved the simulation to span %d after %d calls, want %d after %d", what, s.MakeSpan(), s.NumCalls(), span, n)
		}
	}
	// Before the call at the compile end the clock (9) is short of it (51).
	if err := s.AdvanceSettled([]int64{1, 1}, 2); err == nil {
		t.Fatal("settled advance before the compile end accepted")
	}
	if _, err := s.TailStarts(nil, calls[h:], []int{0}); err == nil {
		t.Fatal("tail starts before the compile end accepted")
	}
	unchanged("an early advance", 9, 2)
	if _, err := s.ExecCalls(nil, calls[h:h+1]); err != nil {
		t.Fatal(err)
	}
	unchanged("the boundary call", 54, 3)
	tail := calls[h+1:] // f0, then the never-compiled f2
	for _, counts := range [][]int64{
		{1, 0, 0},  // misses f2's call
		{0, 0, 0},  // misses both
		{2, 0, -1}, // a negative count
	} {
		if err := s.AdvanceSettled(counts, len(tail)); err == nil {
			t.Errorf("counts %v for tail %v accepted", counts, tail)
		}
		unchanged("a rejected advance", 54, 3)
	}
	var nrv *ErrNoReadyVersion
	if err := s.AdvanceSettled([]int64{1, 0, 1}, len(tail)); !errors.As(err, &nrv) || nrv.Func != 2 {
		t.Errorf("advance over the uncompiled f2: %v, want ErrNoReadyVersion for function 2", err)
	}
	if err := s.AdvanceSettled([]int64{1, 0, 0, 1}, len(tail)); err == nil {
		t.Error("advance counting a function outside the profile accepted")
	}
	unchanged("a rejected advance", 54, 3)
	// The query reads only up to the last asked position: f0's start is
	// known, f2's call cannot start.
	if got, err := s.TailStarts(nil, tail, []int{0, 0}); err != nil || !slices.Equal(got, []int64{54, 54}) {
		t.Errorf("tail starts at f0 = %v, %v; want [54 54]", got, err)
	}
	if _, err := s.TailStarts(nil, tail, []int{1}); !errors.As(err, &nrv) || nrv.Func != 2 || nrv.Time != 58 {
		t.Errorf("tail start of the uncompiled f2: %v, want ErrNoReadyVersion for function 2 at 58", err)
	}
	for _, at := range [][]int{{1, 0}, {2}, {-1}} {
		if _, err := s.TailStarts(nil, tail, at); err == nil {
			t.Errorf("tail positions %v accepted", at)
		}
	}
	unchanged("a query", 54, 3)
	// With f2 compiled the same counts are whole: the advance goes through.
	if err := s.AdvanceSettled([]int64{1, 0, 0}, 1); err != nil {
		t.Fatal(err)
	}
	unchanged("an advance over f0", 58, 4)
}

// TestPrefixSimRebindShared: simulators sharing one flattened profile run
// exactly as simulators with their own copies, and a sharer's lone Rebind
// to another profile leaves the shared table untouched.
func TestPrefixSimRebindShared(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p1, calls := randPrefixInstance(rng, 6, 3, 150)
	p2, _ := randPrefixInstance(rng, 9, 2, 0)
	cfg := Config{CompileWorkers: 2}
	sched := randStaticSchedule(rng, p1)
	run := func(s *PrefixSim) []int64 {
		t.Helper()
		s.Reset()
		for _, ev := range sched {
			if err := s.AppendCompile(ev); err != nil {
				t.Fatal(err)
			}
		}
		starts, err := s.ExecCalls(nil, calls)
		if err != nil {
			t.Fatal(err)
		}
		return append(starts, s.MakeSpan(), s.CompileEnd())
	}
	src, err := NewPrefixSim(p1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := run(src)
	var sharer PrefixSim
	if err := sharer.RebindShared(&PrefixSim{}, cfg); err == nil {
		t.Fatal("sharing an unbound simulator's table accepted")
	}
	if err := sharer.RebindShared(src, Config{}); err == nil {
		t.Fatal("sharing with zero compile workers accepted")
	}
	if err := sharer.RebindShared(src, cfg); err != nil {
		t.Fatal(err)
	}
	if sharer.t != src.t {
		t.Fatal("the sharer keeps its own table")
	}
	if got := run(&sharer); !slices.Equal(got, want) {
		t.Fatal("a sharer simulates differently from its source")
	}
	if err := sharer.Rebind(p2, cfg); err != nil {
		t.Fatal(err)
	}
	if sharer.t == src.t || src.t.nf != p1.NumFuncs() {
		t.Fatal("a sharer's Rebind wrote into the shared table")
	}
	if got := run(src); !slices.Equal(got, want) {
		t.Fatal("the source simulates differently after its sharer's Rebind")
	}
}
