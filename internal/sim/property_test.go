package sim_test

// Property-based tests for the simulator: for randomly generated traces,
// profiles, schedules, and machine configurations, the invariants the paper
// guarantees must hold on every run —
//
//   - the make-span is never below the §5 lower bound (each call at the
//     fastest level its function ever reaches), and exactly equals total
//     execution plus total bubble time;
//   - every call executes at the level of the most recently finished
//     compilation of its function at the call's start time, recomputed here
//     independently from the compile records;
//   - compilation workers never overlap jobs on one core, and every compile
//     record's span equals the profile's compile time.
//
// These are the invariants the parallel experiment runner leans on: they
// make a simulation a pure function of its inputs, so the differential
// tests in internal/runner can demand bit-identical parallel results.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// randomProfile builds a Validate-clean profile: positive times, compile
// times nondecreasing and exec times nonincreasing with level.
func randomProfile(rng *rand.Rand, nf, levels int) *profile.Profile {
	p := &profile.Profile{Levels: levels, Funcs: make([]profile.FuncTimes, nf)}
	for i := range p.Funcs {
		compile := make([]int64, levels)
		exec := make([]int64, levels)
		c := int64(1 + rng.Intn(25))
		e := int64(5 + rng.Intn(60))
		for l := 0; l < levels; l++ {
			compile[l] = c
			exec[l] = e
			c += int64(rng.Intn(40))
			e -= int64(rng.Intn(20))
			if e < 1 {
				e = 1
			}
		}
		p.Funcs[i] = profile.FuncTimes{Size: int64(1 + rng.Intn(1000)), Compile: compile, Exec: exec}
	}
	return p
}

// randomTrace draws a call sequence with a mild hot/cold skew.
func randomTrace(rng *rand.Rand, nf, calls int) *trace.Trace {
	seq := make([]trace.FuncID, calls)
	for i := range seq {
		if rng.Intn(3) == 0 {
			seq[i] = trace.FuncID(rng.Intn(nf))
		} else {
			seq[i] = trace.FuncID(rng.Intn((nf + 2) / 3)) // hot third
		}
	}
	return trace.New("prop", seq)
}

// randomSchedule compiles every called function at least once (a validity
// requirement of static replay) and adds random extra recompilations, in
// shuffled order.
func randomSchedule(rng *rand.Rand, tr *trace.Trace, p *profile.Profile) sim.Schedule {
	var s sim.Schedule
	seen := make(map[trace.FuncID]bool)
	for _, f := range tr.Calls {
		if !seen[f] {
			seen[f] = true
			s = append(s, sim.CompileEvent{Func: f, Level: profile.Level(rng.Intn(p.Levels))})
		}
	}
	extra := rng.Intn(2 * len(s))
	for i := 0; i < extra; i++ {
		s = append(s, sim.CompileEvent{
			Func:  s[rng.Intn(len(s))].Func,
			Level: profile.Level(rng.Intn(p.Levels)),
		})
	}
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

// sectionLowerBound is the §5 bound: every call runs at the fastest level
// its function ever reaches, with zero bubbles.
func sectionLowerBound(tr *trace.Trace, p *profile.Profile) int64 {
	var lb int64
	for _, f := range tr.Calls {
		lb += p.BestExecTime(f)
	}
	return lb
}

// checkInvariants verifies every paper invariant on one run result.
func checkInvariants(t *testing.T, tr *trace.Trace, p *profile.Profile, cfg sim.Config, res *sim.Result) {
	t.Helper()

	// Accounting: make-span decomposes exactly into execution and stalls.
	if res.MakeSpan != res.TotalExec+res.TotalBubble {
		t.Fatalf("MakeSpan %d != TotalExec %d + TotalBubble %d",
			res.MakeSpan, res.TotalExec, res.TotalBubble)
	}

	// §5 lower bound.
	if lb := sectionLowerBound(tr, p); res.MakeSpan < lb {
		t.Fatalf("MakeSpan %d below the §5 lower bound %d", res.MakeSpan, lb)
	}

	// Compile workers never overlap jobs on one core, record spans match the
	// profile, and no record uses an out-of-range worker.
	busyUntil := make(map[int]int64)
	for i, c := range res.Compiles {
		if c.Worker < 0 || c.Worker >= cfg.CompileWorkers {
			t.Fatalf("compile %d on worker %d outside [0,%d)", i, c.Worker, cfg.CompileWorkers)
		}
		if got, want := c.Done-c.Start, p.CompileTime(c.Event.Func, c.Event.Level); got != want {
			t.Fatalf("compile %d spans %d ticks, profile says %d", i, got, want)
		}
		if c.Start < busyUntil[c.Worker] {
			t.Fatalf("worker %d overlaps: compile %d starts at %d before previous job ends at %d",
				c.Worker, i, c.Start, busyUntil[c.Worker])
		}
		busyUntil[c.Worker] = c.Done
	}

	// Per-call checks against an independent reconstruction from the compile
	// records: each call must wait for its function's first version and then
	// run at the most recently finished level.
	if len(res.CallStarts) != tr.Len() || len(res.CallLevels) != tr.Len() {
		t.Fatalf("recorded %d starts / %d levels for %d calls",
			len(res.CallStarts), len(res.CallLevels), tr.Len())
	}
	prevEnd := int64(0)
	for i, f := range tr.Calls {
		start := res.CallStarts[i]
		if start < prevEnd {
			t.Fatalf("call %d starts at %d before call %d finished at %d", i, start, i-1, prevEnd)
		}
		// Latest compilation of f finished at or before start, recomputed
		// from scratch.
		latestDone := int64(-1)
		latestLevel := profile.Level(-1)
		for _, c := range res.Compiles {
			if c.Event.Func == f && c.Done <= start && c.Done >= latestDone {
				latestDone = c.Done
				latestLevel = c.Event.Level
			}
		}
		if latestDone < 0 {
			t.Fatalf("call %d of func %d started at %d before any compilation finished", i, f, start)
		}
		if res.CallLevels[i] != latestLevel {
			t.Fatalf("call %d of func %d ran at level %d, but the most recently finished compilation (t=%d) is level %d",
				i, f, res.CallLevels[i], latestDone, latestLevel)
		}
		prevEnd = start + p.ExecTime(f, res.CallLevels[i])
	}
	if tr.Len() > 0 && res.MakeSpan != prevEnd {
		t.Fatalf("MakeSpan %d != last call end %d", res.MakeSpan, prevEnd)
	}
}

func TestRunPropertyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 60; trial++ {
		nf := 1 + rng.Intn(12)
		levels := 2 + rng.Intn(3)
		p := randomProfile(rng, nf, levels)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid profile: %v", trial, err)
		}
		tr := randomTrace(rng, nf, 1+rng.Intn(250))
		sched := randomSchedule(rng, tr, p)
		cfg := sim.Config{CompileWorkers: 1 + rng.Intn(4)}

		res, err := sim.Run(tr, p, sched, cfg, sim.Options{RecordCalls: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkInvariants(t, tr, p, cfg, res)
	}
}

// chaosPolicy is a deliberately erratic online policy: random first-call
// levels, random mid-run upgrade requests, sampling-driven promotions. If
// the engine's invariants survive this, they survive the structured
// policies.
type chaosPolicy struct {
	rng    *rand.Rand
	levels int
	period int64
}

func (c *chaosPolicy) FirstCall(f trace.FuncID, now int64) profile.Level {
	return profile.Level(c.rng.Intn(c.levels))
}

func (c *chaosPolicy) BeforeCall(f trace.FuncID, nth int64, now int64) []sim.Request {
	if c.rng.Intn(10) == 0 {
		return []sim.Request{{Func: f, Level: profile.Level(c.rng.Intn(c.levels))}}
	}
	return nil
}

func (c *chaosPolicy) BeforeCallLimit() int64 { return math.MaxInt64 }

func (c *chaosPolicy) Sample(f trace.FuncID, now int64) []sim.Request {
	if c.rng.Intn(3) == 0 {
		return []sim.Request{{Func: f, Level: profile.Level(c.levels - 1)}}
	}
	return nil
}

func (c *chaosPolicy) SamplePeriod() int64 { return c.period }

func TestRunPolicyPropertyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77001))
	for trial := 0; trial < 40; trial++ {
		nf := 1 + rng.Intn(10)
		levels := 2 + rng.Intn(3)
		p := randomProfile(rng, nf, levels)
		tr := randomTrace(rng, nf, 1+rng.Intn(200))
		cfg := sim.Config{
			CompileWorkers: 1 + rng.Intn(3),
			Discipline:     sim.QueueDiscipline(rng.Intn(2)),
		}
		pol := &chaosPolicy{
			rng:    rand.New(rand.NewSource(int64(trial) * 7919)),
			levels: levels,
			period: int64(1 + rng.Intn(400)),
		}
		res, err := sim.RunPolicy(tr, p, pol, cfg, sim.Options{RecordCalls: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkInvariants(t, tr, p, cfg, res)
	}
}

// TestRunPropertyWithVariation repeats the static-schedule properties under
// per-call execution-time variation. The level-choice and worker-overlap
// invariants still hold; only per-call durations move, so the reconstruction
// uses the recorded starts rather than profile exec times.
func TestRunPropertyWithVariation(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 20; trial++ {
		nf := 1 + rng.Intn(8)
		p := randomProfile(rng, nf, 3)
		tr := randomTrace(rng, nf, 1+rng.Intn(150))
		sched := randomSchedule(rng, tr, p)
		cfg := sim.Config{CompileWorkers: 1 + rng.Intn(3)}
		res, err := sim.Run(tr, p, sched, cfg, sim.Options{
			RecordCalls:       true,
			ExecVariation:     0.4,
			ExecVariationSeed: int64(trial),
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.MakeSpan != res.TotalExec+res.TotalBubble {
			t.Fatalf("trial %d: MakeSpan %d != exec %d + bubble %d",
				trial, res.MakeSpan, res.TotalExec, res.TotalBubble)
		}
		// Level choice must still follow "most recently finished".
		for i, f := range tr.Calls {
			start := res.CallStarts[i]
			latestDone, latestLevel := int64(-1), profile.Level(-1)
			for _, c := range res.Compiles {
				if c.Event.Func == f && c.Done <= start && c.Done >= latestDone {
					latestDone, latestLevel = c.Done, c.Event.Level
				}
			}
			if res.CallLevels[i] != latestLevel {
				t.Fatalf("trial %d call %d: level %d, want %d", trial, i, res.CallLevels[i], latestLevel)
			}
		}
	}
}
