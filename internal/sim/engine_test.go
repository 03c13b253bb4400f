package sim

import (
	"math/rand"
	"testing"

	"repro/internal/profile"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// v8ish promotes every function to the high level at its second invocation —
// enough policy to exercise the engine without importing internal/policy.
type v8ish struct{ high profile.Level }

func (v v8ish) FirstCall(trace.FuncID, int64) profile.Level { return 0 }
func (v v8ish) BeforeCall(f trace.FuncID, nth int64, now int64) []Request {
	if nth == 2 {
		return []Request{{Func: f, Level: v.high}}
	}
	return nil
}
func (v v8ish) BeforeCallLimit() int64               { return 2 }
func (v v8ish) Sample(trace.FuncID, int64) []Request { return nil }
func (v v8ish) SamplePeriod() int64                  { return 0 }

// levelZero compiles everything at level 0 on first call.
type levelZero struct{}

func (levelZero) FirstCall(trace.FuncID, int64) profile.Level     { return 0 }
func (levelZero) BeforeCall(trace.FuncID, int64, int64) []Request { return nil }
func (levelZero) BeforeCallLimit() int64                          { return 0 }
func (levelZero) Sample(trace.FuncID, int64) []Request            { return nil }
func (levelZero) SamplePeriod() int64                             { return 0 }

// multiSampler enqueues a level-1 recompile of whichever of functions 0 and
// 1 it samples.
type multiSampler struct{ period int64 }

func (m multiSampler) FirstCall(trace.FuncID, int64) profile.Level     { return 0 }
func (m multiSampler) BeforeCall(trace.FuncID, int64, int64) []Request { return nil }
func (m multiSampler) BeforeCallLimit() int64                          { return 0 }
func (m multiSampler) Sample(f trace.FuncID, now int64) []Request {
	if f <= 1 {
		return []Request{{Func: f, Level: 1}}
	}
	return nil
}
func (m multiSampler) SamplePeriod() int64 { return m.period }

// burstSampler floods the queue: its first sample enqueues recompilations of
// both hot functions at once, saturating the single worker.
type burstSampler struct {
	period int64
	fired  bool
}

func (b *burstSampler) FirstCall(trace.FuncID, int64) profile.Level     { return 0 }
func (b *burstSampler) BeforeCall(trace.FuncID, int64, int64) []Request { return nil }
func (b *burstSampler) BeforeCallLimit() int64                          { return 0 }
func (b *burstSampler) Sample(f trace.FuncID, now int64) []Request {
	if b.fired {
		return nil
	}
	b.fired = true
	return []Request{{Func: 0, Level: 1}, {Func: 1, Level: 1}}
}
func (b *burstSampler) SamplePeriod() int64 { return b.period }

func TestDisciplineString(t *testing.T) {
	if FIFO.String() != "fifo" || FirstCompileFirst.String() != "first-compile-first" {
		t.Error("discipline names changed")
	}
	if QueueDiscipline(9).String() == "" {
		t.Error("unknown discipline should still stringify")
	}
}

func TestRunPolicyRejectsBadDiscipline(t *testing.T) {
	p := figure1Profile()
	tr := trace.New("t", []trace.FuncID{0})
	_, err := RunPolicy(tr, p, levelZero{}, Config{CompileWorkers: 1, Discipline: QueueDiscipline(7)}, Options{})
	if err == nil {
		t.Error("want error for unknown discipline")
	}
}

// TestOnlineV8Timeline pins the engine's lazy queue down to exact ticks on a
// blocking scenario: the first call of a new function queues behind an
// in-flight recompilation (in-flight work is never preempted, under either
// discipline).
func TestOnlineV8Timeline(t *testing.T) {
	p := &profile.Profile{
		Levels: 2,
		Funcs: []profile.FuncTimes{
			{Name: "hot", Compile: []int64{1, 100}, Exec: []int64{10, 1}},
			{Name: "new", Compile: []int64{2, 50}, Exec: []int64{5, 5}},
		},
	}
	tr := trace.New("t", []trace.FuncID{0, 0, 1})
	for _, d := range []QueueDiscipline{FIFO, FirstCompileFirst} {
		res, err := RunPolicy(tr, p, v8ish{high: 1}, Config{CompileWorkers: 1, Discipline: d}, Options{RecordCalls: true})
		if err != nil {
			t.Fatal(err)
		}
		// c0l [0,1); e0 [1,11); 2nd call enqueues c0h at 11 (worker idle,
		// starts immediately, [11,111)); e0 [11,21); f1's first compile
		// arrives at 21 while c0h is IN FLIGHT -> starts 111, done 113;
		// e1 [113,118).
		if res.MakeSpan != 118 {
			t.Errorf("%v: make-span = %d, want 118 (no preemption of in-flight work)", d, res.MakeSpan)
		}
		if res.CallStarts[2] != 113 {
			t.Errorf("%v: blocked call starts at %d, want 113", d, res.CallStarts[2])
		}
	}
}

// TestPriorityTrueOvertake: two recompilations land in the queue at once —
// one goes in flight, one stays pending — and a later first-compilation
// must jump the pending one under FirstCompileFirst but not under FIFO.
//
// Timeline (ticks): c(h1,0) [0,10), h1 runs [10,40); h2's first compile
// [40,50), h2 runs [50,80); the sampler fires at 75 and enqueues both
// recompilations: c(h1,1) starts at 75 and runs to 275, c(h2,1) waits.
// h1 runs again [80,110) at level 0; then "new" is reached at 110 and its
// first compile is requested. FIFO serves c(h2,1) [275,475) first, so new
// compiles [475,480) and the three calls finish at 495. The priority
// discipline serves new at [275,280) and the run finishes at 295.
func TestPriorityTrueOvertake(t *testing.T) {
	p := &profile.Profile{
		Levels: 2,
		Funcs: []profile.FuncTimes{
			{Name: "h1", Compile: []int64{10, 200}, Exec: []int64{30, 1}},
			{Name: "h2", Compile: []int64{10, 200}, Exec: []int64{30, 1}},
			{Name: "new", Compile: []int64{5, 50}, Exec: []int64{5, 5}},
		},
	}
	seq := []trace.FuncID{0, 1, 0, 2, 2, 2}
	fifo, err := RunPolicy(trace.New("t", seq), p, &burstSampler{period: 75},
		Config{CompileWorkers: 1, Discipline: FIFO}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prio, err := RunPolicy(trace.New("t", seq), p, &burstSampler{period: 75},
		Config{CompileWorkers: 1, Discipline: FirstCompileFirst}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fifo.MakeSpan != 495 {
		t.Errorf("FIFO make-span = %d, want 495", fifo.MakeSpan)
	}
	if prio.MakeSpan != 295 {
		t.Errorf("priority make-span = %d, want 295", prio.MakeSpan)
	}
	// Under priority, new@0 must start compiling before the last queued
	// recompilation does.
	var newStart, lastRecompileStart int64 = -1, -1
	for _, c := range prio.Compiles {
		if c.Event.Func == 2 && c.Event.Level == 0 {
			newStart = c.Start
		}
		if c.Event.Level == 1 && c.Start > lastRecompileStart {
			lastRecompileStart = c.Start
		}
	}
	if newStart < 0 || lastRecompileStart < 0 || newStart >= lastRecompileStart {
		t.Errorf("no overtake observed: new@0 starts %d, last recompile starts %d",
			newStart, lastRecompileStart)
	}
	// FIFO must not have overtaken: requests start in arrival order.
	for i := 1; i < len(fifo.Compiles); i++ {
		if fifo.Compiles[i].Start < fifo.Compiles[i-1].Start {
			t.Errorf("FIFO compile %d starts before its predecessor", i)
		}
	}
}

// TestDisciplinesAgreeWithoutContention: when the queue never holds more
// than one request, the disciplines are indistinguishable.
func TestDisciplinesAgreeWithoutContention(t *testing.T) {
	tr := testkit.Gen(trace.GenConfig{
		Name: "t", NumFuncs: 50, Length: 4000, Seed: 5,
		ZipfS: 1.6, Phases: 2, CoreFuncs: 10, CoreShare: 0.5, BurstMean: 2,
	})
	p := testkit.Synth(50, profile.DefaultTiming(4, 6))
	a, err := RunPolicy(tr, p, levelZero{}, Config{CompileWorkers: 1, Discipline: FIFO}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPolicy(tr, p, levelZero{}, Config{CompileWorkers: 1, Discipline: FirstCompileFirst}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.MakeSpan != b.MakeSpan {
		t.Errorf("first-call-only policy: disciplines disagree (%d vs %d)", a.MakeSpan, b.MakeSpan)
	}
}

// TestOnlineMakeSpanIdentity: the accounting identity holds for the online
// engine under both disciplines and several worker counts.
func TestOnlineMakeSpanIdentity(t *testing.T) {
	tr := testkit.Gen(trace.GenConfig{
		Name: "t", NumFuncs: 120, Length: 20000, Seed: 9,
		ZipfS: 1.5, Phases: 3, CoreFuncs: 20, CoreShare: 0.5, BurstMean: 3,
		WarmupFrac: 0.1, WarmupCoverage: 0.8,
	})
	p := testkit.Synth(120, profile.DefaultTiming(4, 10))
	for _, d := range []QueueDiscipline{FIFO, FirstCompileFirst} {
		for _, workers := range []int{1, 3} {
			res, err := RunPolicy(tr, p, multiSampler{period: 5000},
				Config{CompileWorkers: workers, Discipline: d}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.MakeSpan != res.TotalExec+res.TotalBubble {
				t.Errorf("%v/%d workers: identity violated: %d != %d + %d",
					d, workers, res.MakeSpan, res.TotalExec, res.TotalBubble)
			}
			// Compile records are in start order and never overlap per
			// worker.
			perWorker := map[int]int64{}
			for i, c := range res.Compiles {
				if c.Start < perWorker[c.Worker] {
					t.Errorf("%v/%d: compile %d overlaps previous work on worker %d", d, workers, i, c.Worker)
				}
				perWorker[c.Worker] = c.Done
				if c.Done-c.Start != p.CompileTime(c.Event.Func, c.Event.Level) {
					t.Errorf("%v/%d: compile %d has wrong duration", d, workers, i)
				}
			}
		}
	}
}

// TestCompileQueueMatchesScan diffs the two-heap queue against the
// reference scan queue on random push/serve sequences with non-monotone,
// often tied arrivals (as RunPolicyMT produces): each served request and
// the pending and pending-recompile counts must agree, under both
// disciplines.
func TestCompileQueueMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []QueueDiscipline{FIFO, FirstCompileFirst} {
		for round := 0; round < 200; round++ {
			var q compileQueue
			q.reset(d)
			ref := refQueue{discipline: d}
			seq := 0
			for step := 0; step < 60; step++ {
				if rng.Intn(3) > 0 {
					seq++
					r := pendingReq{f: trace.FuncID(rng.Intn(5)), arrival: int64(rng.Intn(8)), first: rng.Intn(2) == 0, seq: seq}
					q.push(r)
					ref.push(r)
					continue
				}
				now := int64(rng.Intn(10))
				i, h := ref.next(now), q.next(now)
				if (i < 0) != (h < 0) {
					t.Fatalf("%v round %d: next(%d): reference index %d, heap %d", d, round, now, i, h)
				}
				if i < 0 {
					continue
				}
				if want, got := ref.remove(i), q.pop(h); want != got {
					t.Fatalf("%v round %d: next(%d) serves %+v, reference %+v", d, round, now, got, want)
				}
				if q.len() != len(ref.pending) || q.recompiles != countRecompiles(ref.pending) {
					t.Fatalf("%v round %d: %d pending (%d recompiles), reference %d (%d)", d, round,
						q.len(), q.recompiles, len(ref.pending), countRecompiles(ref.pending))
				}
			}
		}
	}
}

func countRecompiles(pending []pendingReq) int {
	n := 0
	for _, r := range pending {
		if !r.first {
			n++
		}
	}
	return n
}
