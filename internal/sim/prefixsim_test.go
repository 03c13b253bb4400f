package sim

import (
	"math/rand"
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
		var sched Schedule
		for f := 0; f < p.NumFuncs(); f++ {
			sched = append(sched, CompileEvent{Func: trace.FuncID(f), Level: 0})
			if p.Levels > 1 && rng.Intn(2) == 0 {
				sched = append(sched, CompileEvent{Func: trace.FuncID(f), Level: profile.Level(1 + rng.Intn(p.Levels-1))})
			}
		}
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
}
