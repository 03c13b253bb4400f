package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/profile"
	"repro/internal/trace"
)

// rewindInstance is one (profile, calls, schedule) the rewind tests replay.
type rewindInstance struct {
	name  string
	p     *profile.Profile
	calls []trace.FuncID
	sched Schedule
}

// rewindInstances are random instances and the trace fuzz seed corpus, each
// with a schedule that compiles every called function.
func rewindInstances(t *testing.T, rng *rand.Rand) []rewindInstance {
	t.Helper()
	var out []rewindInstance
	for trial := 0; trial < 30; trial++ {
		p, calls := randPrefixInstance(rng, 2+rng.Intn(10), 1+rng.Intn(4), rng.Intn(200))
		out = append(out, rewindInstance{fmt.Sprintf("random%d", trial), p, calls, randStaticSchedule(rng, p)})
	}
	for _, tr := range corpusTraces(t) {
		p, err := profile.Synthesize(tr.NumFuncs(), profile.DefaultTiming(4, 11))
		if err != nil {
			t.Fatalf("%s: synthesize: %v", tr.Name, err)
		}
		out = append(out, rewindInstance{tr.Name, p, tr.Calls, corpusSchedule(tr, p, 5)})
	}
	return out
}

// replayTo builds a simulator that has appended sched and run calls the way
// a plan rebuild leaves it — the head recorded, the call after it, the rest
// counted by AdvanceSettled — or, with whole set, all of calls through
// ExecCalls. It returns the simulator and its record of starts.
func replayTo(t *testing.T, p *profile.Profile, cfg Config, sched Schedule, calls []trace.FuncID, whole bool) (*PrefixSim, []int64) {
	t.Helper()
	s, err := NewPrefixSim(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range sched {
		if err := s.AppendCompile(ev); err != nil {
			t.Fatal(err)
		}
	}
	if whole {
		starts, err := s.ExecCalls(nil, calls)
		if err != nil {
			t.Fatal(err)
		}
		return s, starts
	}
	starts, h, err := s.ExecHead(nil, calls, true)
	if err != nil {
		t.Fatal(err)
	}
	if h < len(calls) {
		if starts, err = s.ExecCalls(starts, calls[h:h+1]); err != nil {
			t.Fatal(err)
		}
		rest := calls[h+1:]
		counts := make([]int64, p.NumFuncs())
		for _, f := range rest {
			counts[f]++
		}
		if err := s.AdvanceSettled(counts, len(rest)); err != nil {
			t.Fatal(err)
		}
	}
	return s, starts
}

// sameState diffs every accessor of two simulators; calls and starts are
// the calls both have executed with their starts, at which LevelAt is asked.
func sameState(t *testing.T, tag string, got, want *PrefixSim, calls []trace.FuncID, starts []int64) {
	t.Helper()
	if got.MakeSpan() != want.MakeSpan() || got.CompileEnd() != want.CompileEnd() ||
		got.NumCalls() != want.NumCalls() || got.NumCompiles() != want.NumCompiles() {
		t.Fatalf("%s: span %d, compile end %d, %d calls, %d compiles; fresh replay %d, %d, %d, %d", tag,
			got.MakeSpan(), got.CompileEnd(), got.NumCalls(), got.NumCompiles(),
			want.MakeSpan(), want.CompileEnd(), want.NumCalls(), want.NumCompiles())
	}
	if !slices.Equal(got.CompileDones(), want.CompileDones()) {
		t.Fatalf("%s: compile dones %v, fresh replay %v", tag, got.CompileDones(), want.CompileDones())
	}
	gb, gs := got.Bubble()
	wb, ws := want.Bubble()
	if gb != wb || gs != ws {
		t.Fatalf("%s: bubble %d over %d stalls, fresh replay %d over %d", tag, gb, gs, wb, ws)
	}
	for f := range got.t.nf {
		if g, w := got.FirstReady(trace.FuncID(f)), want.FirstReady(trace.FuncID(f)); g != w {
			t.Fatalf("%s: function %d first ready at %d, fresh replay %d", tag, f, g, w)
		}
	}
	for i, f := range calls {
		if g, w := got.LevelAt(f, starts[i]), want.LevelAt(f, starts[i]); g != w {
			t.Fatalf("%s: call %d at %d runs at level %d, fresh replay %d", tag, i, starts[i], g, w)
		}
	}
}

// TestPrefixSimRewind: on random schedules and the trace fuzz corpus, with
// one and three compile workers, a simulation rewound to every event
// boundary equals a fresh replay of the kept events over the kept calls; it
// keeps exactly the recorded calls that start before, and end at or before,
// the kept events' free time; and after a different suffix is appended and
// the head resumes it equals a fresh replay of the new schedule, and the
// reference loop, refusing the same history-rewriting appends, through to
// the last call, and rewound once more it again equals a fresh replay.
func TestPrefixSimRewind(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	kept, dropped := 0, 0
	for _, in := range rewindInstances(t, rng) {
		p, calls, sched := in.p, in.calls, in.sched
		for _, workers := range []int{1, 3} {
			cfg := Config{CompileWorkers: workers}
			ref, err := refRun(trace.New("ref", calls), p, sched, cfg, Options{RecordCalls: true})
			if err != nil {
				t.Fatalf("%s: reference run: %v", in.name, err)
			}
			for i := 0; i <= len(sched); i++ {
				whole := rng.Intn(2) == 0
				tag := fmt.Sprintf("%s/w%d/event %d/whole=%v", in.name, workers, i, whole)
				s, rec := replayTo(t, p, cfg, sched, calls, whole)
				k, err := s.Rewind(i, calls[:len(rec)], rec)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}

				// The kept calls: the recorded ones that start before the
				// free time and end at or before it.
				probe, _ := replayTo(t, p, cfg, sched[:i], nil, true)
				var free int64
				if p.NumFuncs() > 0 {
					r, err := probe.AppendCompileAt(CompileEvent{}, 0)
					if err != nil {
						t.Fatal(err)
					}
					free = r.Start
				}
				want := 0
				for want < len(rec) {
					st := ref.CallStarts[want]
					if st >= free || st+p.ExecTime(calls[want], ref.CallLevels[want]) > free {
						break
					}
					want++
				}
				if k != want {
					t.Fatalf("%s: kept %d calls, want %d (free time %d)", tag, k, want, free)
				}
				kept += k
				dropped += len(sched) - i

				fresh, freshStarts := replayTo(t, p, cfg, sched[:i], calls[:k], true)
				sameState(t, tag+"/rewound", s, fresh, calls[:k], rec[:k])

				// A different suffix: the dropped events shuffled, at new levels.
				next := append(Schedule(nil), sched[:i]...)
				for _, j := range rng.Perm(len(sched) - i) {
					ev := sched[i+j]
					ev.Level = profile.Level(rng.Intn(p.Levels))
					next = append(next, ev)
				}
				for _, ev := range next[i:] {
					if err := s.AppendCompile(ev); err != nil {
						t.Fatalf("%s: re-append: %v", tag, err)
					}
					if err := fresh.AppendCompile(ev); err != nil {
						t.Fatal(err)
					}
				}
				starts, _, err := s.ExecHead(rec[:k], calls[k:], true)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if freshStarts, _, err = fresh.ExecHead(freshStarts, calls[k:], true); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(starts, freshStarts) {
					t.Fatalf("%s: head starts %v, fresh replay %v", tag, starts, freshStarts)
				}
				sameState(t, tag+"/head", s, fresh, calls[:len(starts)], starts)
				comparePrefix(t, s, starts, p, next, calls[:len(starts)], cfg)

				// An event of a function no remaining kept call ran must be
				// admitted as in the fresh replay, and one of a function
				// that ran refused alike.
				for f := range p.NumFuncs() {
					ev := CompileEvent{Func: trace.FuncID(f)}
					if g, w := s.AppendCompile(ev), fresh.AppendCompile(ev); (g == nil) != (w == nil) {
						t.Fatalf("%s: append of function %d: %v, fresh replay %v", tag, f, g, w)
					}
				}
				if starts, err = s.ExecCalls(starts, calls[len(starts):]); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if freshStarts, err = fresh.ExecCalls(freshStarts, calls[len(freshStarts):]); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(starts, freshStarts) {
					t.Fatalf("%s: starts %v, fresh replay %v", tag, starts, freshStarts)
				}
				sameState(t, tag+"/all", s, fresh, calls, starts)

				// A second rewind reads back what the resumed run logged.
				j := rng.Intn(len(next) + 1)
				k2, err := s.Rewind(j, calls, starts)
				if err != nil {
					t.Fatalf("%s: second rewind: %v", tag, err)
				}
				again, _ := replayTo(t, p, cfg, next[:j], calls[:k2], true)
				sameState(t, fmt.Sprintf("%s/rewound again to %d", tag, j), s, again, calls[:k2], starts[:k2])
			}
		}
	}
	// Both halves of the rule must be exercised.
	if kept == 0 || dropped == 0 {
		t.Fatalf("rewinds kept %d calls and dropped %d events in all", kept, dropped)
	}
}

// TestPrefixSimRewindErrors: Rewind refuses an event count outside the
// appended events and a record that does not match the executed calls,
// leaving the simulation unchanged.
func TestPrefixSimRewindErrors(t *testing.T) {
	p, cfg := settledEdgeProfile, DefaultConfig()
	calls := []trace.FuncID{0, 0, 1, 0}
	s, rec := replayTo(t, p, cfg, Schedule{{Func: 0, Level: 0}, {Func: 1, Level: 0}}, calls, true)
	span, dones := s.MakeSpan(), slices.Clone(s.CompileDones())
	for _, tc := range []struct {
		name   string
		events int
		calls  []trace.FuncID
		starts []int64
	}{
		{"negative events", -1, calls, rec},
		{"events past the schedule", 3, calls, rec},
		{"calls and starts differ in length", 1, calls[:2], rec[:3]},
		{"record longer than the executed calls", 1, append(calls, 0), append(rec, span)},
	} {
		if _, err := s.Rewind(tc.events, tc.calls, tc.starts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if s.MakeSpan() != span || s.NumCalls() != len(calls) || !slices.Equal(s.CompileDones(), dones) {
			t.Fatalf("%s: the refused rewind changed the simulation", tc.name)
		}
	}
	// Rewinding to everything appended keeps the calls that end by the
	// worker's free time, the compile end 51: f0's calls at 1 and 5.
	if k, err := s.Rewind(2, calls, rec); err != nil || k != 2 || s.MakeSpan() != 9 {
		t.Fatalf("rewind to the whole schedule kept %d calls to span %d, %v; want 2 to 9", k, s.MakeSpan(), err)
	}
}
