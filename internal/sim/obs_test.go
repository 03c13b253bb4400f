package sim

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
)

// obsWorkload is a small two-function workload with a real warmup stall.
func obsWorkload(t testing.TB) (*trace.Trace, *profile.Profile, Schedule) {
	t.Helper()
	p, err := profile.Synthesize(2, profile.DefaultTiming(3, 7))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("obs", []trace.FuncID{0, 1, 0, 0, 1})
	sched := Schedule{{Func: 0, Level: 0}, {Func: 1, Level: 1}, {Func: 0, Level: 2}}
	return tr, p, sched
}

// TestRunRecordsConsistentEvents checks the recorder contract on the static
// path: events pair into spans, the compile spans reproduce Result.Compiles,
// every call appears as an exec span, and stalls sum to TotalBubble.
func TestRunRecordsConsistentEvents(t *testing.T) {
	tr, p, sched := obsWorkload(t)
	rec := obs.NewRecorder()
	res, err := Run(tr, p, sched, DefaultConfig(), Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(tr, p, sched, DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakeSpan != base.MakeSpan || res.TotalBubble != base.TotalBubble {
		t.Errorf("recording changed the result: %d/%d vs %d/%d",
			res.MakeSpan, res.TotalBubble, base.MakeSpan, base.TotalBubble)
	}
	checkEventsMatch(t, rec.Events(), tr, res)
}

// TestRunPolicyRecordsConsistentEvents checks the same contract on the
// online path, where compiles are materialized lazily by the engine.
func TestRunPolicyRecordsConsistentEvents(t *testing.T) {
	tr, p, _ := obsWorkload(t)
	rec := obs.NewRecorder()
	res, err := RunPolicy(tr, p, onDemandPolicy{}, DefaultConfig(), Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunPolicy(tr, p, onDemandPolicy{}, DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakeSpan != base.MakeSpan {
		t.Errorf("recording changed the make-span: %d vs %d", res.MakeSpan, base.MakeSpan)
	}
	checkEventsMatch(t, rec.Events(), tr, res)
}

// onDemandPolicy compiles every function at level 0 on first call.
type onDemandPolicy struct{}

func (onDemandPolicy) FirstCall(f trace.FuncID, now int64) profile.Level { return 0 }
func (onDemandPolicy) BeforeCall(trace.FuncID, int64, int64) []Request   { return nil }
func (onDemandPolicy) Sample(trace.FuncID, int64) []Request              { return nil }
func (onDemandPolicy) SamplePeriod() int64                               { return 0 }

func checkEventsMatch(t *testing.T, events []obs.Event, tr *trace.Trace, res *Result) {
	t.Helper()
	spans, err := obs.Spans(events)
	if err != nil {
		t.Fatalf("recorded events do not pair: %v", err)
	}
	var compiles, execs int
	var stallTotal int64
	for _, s := range spans {
		switch s.Kind {
		case obs.SpanCompile:
			c := res.Compiles[s.Seq]
			if int64(s.Start) != c.Start || int64(s.End) != c.Done ||
				int32(c.Worker) != s.Worker || int32(c.Event.Func) != s.Func {
				t.Errorf("compile span %+v disagrees with record %+v", s, c)
			}
			compiles++
		case obs.SpanExec:
			execs++
		case obs.SpanStall:
			stallTotal += s.End - s.Start
		}
	}
	if compiles != len(res.Compiles) {
		t.Errorf("recorded %d compile spans, result has %d", compiles, len(res.Compiles))
	}
	if execs != tr.Len() {
		t.Errorf("recorded %d exec spans for %d calls", execs, tr.Len())
	}
	if stallTotal != res.TotalBubble {
		t.Errorf("recorded stalls sum to %d, TotalBubble is %d", stallTotal, res.TotalBubble)
	}
}

// TestRunPolicyMTRejectsRecorder pins the documented restriction.
func TestRunPolicyMTRejectsRecorder(t *testing.T) {
	tr, p, _ := obsWorkload(t)
	_, _, err := RunPolicyMT([]*trace.Trace{tr}, p, onDemandPolicy{}, DefaultConfig(),
		Options{Recorder: obs.NewRecorder()})
	if err == nil {
		t.Fatal("RunPolicyMT accepted a recorder")
	}
}

// TestRecorderDisabledZeroAlloc is the acceptance gate for the overhead
// contract: with the recorder disabled the execution loop must not allocate
// at all. The Makefile bench-guard target runs this in CI.
func TestRecorderDisabledZeroAlloc(t *testing.T) {
	tr, p, sched := obsWorkload(t)
	tb, c := kernelFor(t, p, sched)
	allocs := testing.AllocsPerRun(200, func() {
		x := execLoop{c: c, t: tb}
		if err := x.run(tr.Calls, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("recorder-off execution loop allocates %v times per run, want 0", allocs)
	}
}

// kernelFor builds sched's compile side on one worker, as Evaluator.Run
// does, for driving the exec kernel directly.
func kernelFor(t testing.TB, p *profile.Profile, sched Schedule) (*tables, *compiled) {
	t.Helper()
	tb := &tables{}
	if err := tb.load(p); err != nil {
		t.Fatal(err)
	}
	c := &compiled{}
	c.reset(tb.nf)
	pool := newWorkerPool(1)
	for _, ev := range sched {
		_, _, done := pool.assign(0, p.CompileTime(ev.Func, ev.Level))
		c.add(tb, ev.Func, ev.Level, done)
	}
	return tb, c
}

// benchWorkload builds a larger schedule/trace pair for the benchmarks: every
// function compiled once at level 0, called round-robin.
func benchWorkload(b *testing.B) (*trace.Trace, *tables, *compiled) {
	b.Helper()
	const nf = 64
	p, err := profile.Synthesize(nf, profile.DefaultTiming(3, 11))
	if err != nil {
		b.Fatal(err)
	}
	calls := make([]trace.FuncID, 4096)
	for i := range calls {
		calls[i] = trace.FuncID(i % nf)
	}
	sched := make(Schedule, nf)
	for f := range sched {
		sched[f] = CompileEvent{Func: trace.FuncID(f)}
	}
	tb, c := kernelFor(b, p, sched)
	return trace.New("bench", calls), tb, c
}

// BenchmarkRunCallsRecorderOff measures the execution loop with recording
// disabled; it must report 0 allocs/op.
func BenchmarkRunCallsRecorderOff(b *testing.B) {
	tr, tb, c := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := execLoop{c: c, t: tb}
		if err := x.run(tr.Calls, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCallsRecorderOn measures the same loop with a reused recorder,
// quantifying the per-event recording cost.
func BenchmarkRunCallsRecorderOn(b *testing.B) {
	tr, tb, c := benchWorkload(b)
	rec := obs.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Reset()
		x := execLoop{c: c, t: tb, rec: rec}
		if err := x.run(tr.Calls, 0); err != nil {
			b.Fatal(err)
		}
	}
}
