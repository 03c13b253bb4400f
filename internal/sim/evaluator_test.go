package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// corpusTraces is the trace fuzz seed corpus as differential-test inputs,
// up to 64Ki calls each.
func corpusTraces(t testing.TB) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for _, tr := range testkit.FuzzCorpusTraces(t) {
		if tr.Len() <= 1<<16 {
			out = append(out, tr)
		}
	}
	return out
}

// corpusSchedule builds a deterministic valid schedule for the trace: every
// called function at a pseudo-random level in first-call order, plus a few
// recompilations, mimicking the shapes IAR and the searches produce.
func corpusSchedule(tr *trace.Trace, p *profile.Profile, seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	order := tr.FirstCallOrder()
	sched := make(Schedule, 0, len(order)*2)
	for _, f := range order {
		sched = append(sched, CompileEvent{Func: f, Level: profile.Level(rng.Intn(p.Levels))})
	}
	for _, f := range order {
		if rng.Intn(3) == 0 {
			sched = append(sched, CompileEvent{Func: f, Level: profile.Level(rng.Intn(p.Levels))})
		}
	}
	return sched
}

// diffResults compares every field of two results, reporting the first
// mismatching field by name.
func diffResults(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	wv, gv := reflect.ValueOf(*want), reflect.ValueOf(*got)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("%s: Result.%s differs: reference=%v got=%v",
				tag, wv.Type().Field(i).Name, wv.Field(i).Interface(), gv.Field(i).Interface())
		}
	}
}

// diffAgainstRef runs one (trace, profile, schedule, config, options)
// instance through every user of the make-span kernel — a cold and a warm
// Evaluator.Run, the sim.Run wrapper, and PrefixSim (whole, and stopped at
// the compile end then resumed) — and diffs each against the reference
// loop: Result fields, error strings, and, in a second pass with a Recorder
// attached, the recorded event stream.
func diffAgainstRef(t *testing.T, tag string, tr *trace.Trace, p *profile.Profile, sched Schedule, cfg Config, opts Options) {
	t.Helper()
	want, wantErr := refRun(tr, p, sched, cfg, opts)
	eval, err := NewEvaluator(tr, p)
	if err != nil {
		t.Fatalf("%s: NewEvaluator: %v", tag, err)
	}
	for pass, run := range []func() (*Result, error){
		func() (*Result, error) { return eval.Run(sched, cfg, opts) },
		func() (*Result, error) { return eval.Run(sched, cfg, opts) }, // warm
		func() (*Result, error) { return Run(tr, p, sched, cfg, opts) },
	} {
		got, gotErr := run()
		if wantErr != nil || gotErr != nil {
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("%s pass %d: error mismatch: reference=%v got=%v", tag, pass, wantErr, gotErr)
			}
			continue
		}
		diffResults(t, tag, want, got)
	}
	if wantErr != nil {
		return
	}

	// The recorded event stream, compile and exec side.
	wantRec, gotRec, simRec := obs.NewRecorder(), obs.NewRecorder(), obs.NewRecorder()
	ropts := opts
	ropts.Recorder = wantRec
	if _, err := refRun(tr, p, sched, cfg, ropts); err != nil {
		t.Fatal(err)
	}
	ropts.Recorder = gotRec
	if _, err := eval.Run(sched, cfg, ropts); err != nil {
		t.Fatal(err)
	}
	ropts.Recorder = simRec
	if _, err := Run(tr, p, sched, cfg, ropts); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantRec.Events(), gotRec.Events()) || !reflect.DeepEqual(wantRec.Events(), simRec.Events()) {
		t.Errorf("%s: recorded events differ from the reference's", tag)
	}

	full, err := refRun(tr, p, sched, cfg, Options{RecordCalls: true})
	if err != nil {
		t.Fatal(err)
	}

	// PrefixSim runs no variation; feed it the schedule, then the calls in
	// two chunks.
	if opts.ExecVariation == 0 {
		ps, err := NewPrefixSim(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range sched {
			if err := ps.AppendCompile(ev); err != nil {
				t.Fatal(err)
			}
		}
		half := tr.Len() / 2
		starts, err := ps.ExecCalls(nil, tr.Calls[:half])
		if err != nil {
			t.Fatal(err)
		}
		if starts, err = ps.ExecCalls(starts, tr.Calls[half:]); err != nil {
			t.Fatal(err)
		}
		if ps.MakeSpan() != full.MakeSpan || ps.CompileEnd() != full.CompileEnd ||
			!slices.Equal(starts, full.CallStarts) {
			t.Errorf("%s: PrefixSim (span %d, end %d) differs from the reference (span %d, end %d) or in call starts",
				tag, ps.MakeSpan(), ps.CompileEnd(), full.MakeSpan, full.CompileEnd)
		}
		diffStopAtCompileEnd(t, tag, tr, p, sched, cfg, full)
	}
}

// diffStopAtCompileEnd checks PrefixSim's head against the reference run:
// ExecHead executes exactly the calls that start before the compile end —
// Formula 2's n1 prefix — to the reference's exec clock, with the
// reference's starts; a second pass executes nothing; and ExecCalls over
// the rest resumes to the reference's whole run, start for start. The
// plan-rebuild path — the head, the call at the compile end, and the
// settled rest from its call counts — must reach the same make-span.
func diffStopAtCompileEnd(t *testing.T, tag string, tr *trace.Trace, p *profile.Profile, sched Schedule, cfg Config, full *Result) {
	t.Helper()
	ps, err := NewPrefixSim(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range sched {
		if err := ps.AppendCompile(ev); err != nil {
			t.Fatal(err)
		}
	}
	want, clock := 0, int64(0)
	for want < tr.Len() && full.CallStarts[want] < full.CompileEnd {
		clock = full.CallStarts[want] + p.ExecTime(tr.Calls[want], full.CallLevels[want])
		want++
	}
	head, n, err := ps.ExecHead(nil, tr.Calls, true)
	if err != nil {
		t.Fatalf("%s: ExecHead: %v", tag, err)
	}
	if n != want || ps.NumCalls() != want || ps.MakeSpan() != clock || !slices.Equal(head, full.CallStarts[:n]) {
		t.Fatalf("%s: ExecHead executed %d calls to clock %d, reference %d to %d, or differs in call starts",
			tag, n, ps.MakeSpan(), want, clock)
	}
	if _, again, err := ps.ExecHead(nil, tr.Calls[n:], false); err != nil || again != 0 {
		t.Errorf("%s: second ExecHead = %d, %v; want 0, nil", tag, again, err)
	}
	rest, err := ps.ExecCalls(nil, tr.Calls[n:])
	if err != nil {
		t.Fatal(err)
	}
	if ps.MakeSpan() != full.MakeSpan || !slices.Equal(rest, full.CallStarts[n:]) {
		t.Errorf("%s: resumed PrefixSim (span %d) differs from the reference (span %d) or in call starts",
			tag, ps.MakeSpan(), full.MakeSpan)
	}
	settled, err := NewPrefixSim(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runSettled(settled, sched, tr.Calls, nil); err != nil {
		t.Fatalf("%s: settled path: %v", tag, err)
	}
	if settled.MakeSpan() != full.MakeSpan || settled.NumCalls() != tr.Len() {
		t.Errorf("%s: settled path reaches span %d after %d calls, reference %d after %d",
			tag, settled.MakeSpan(), settled.NumCalls(), full.MakeSpan, tr.Len())
	}
}

// TestEvaluatorMatchesRunOnCorpus pins the identical-results contract: over
// the whole fuzz seed corpus, every user of the make-span kernel agrees with
// the reference loop field for field, across worker counts (1-3, which give
// out-of-order finish times) and options.
func TestEvaluatorMatchesRunOnCorpus(t *testing.T) {
	for _, tr := range corpusTraces(t) {
		nf := tr.NumFuncs()
		p, err := profile.Synthesize(nf, profile.DefaultTiming(4, 11))
		if err != nil {
			t.Fatalf("%s: synthesize: %v", tr.Name, err)
		}
		sched := corpusSchedule(tr, p, 5)
		for _, cfg := range []Config{{CompileWorkers: 1}, {CompileWorkers: 2}, {CompileWorkers: 3}} {
			for _, opts := range []Options{
				{},
				{RecordCalls: true},
				{RecordCalls: true, ExecVariation: 0.3, ExecVariationSeed: 42},
			} {
				diffAgainstRef(t, tr.Name, tr, p, sched, cfg, opts)
			}
		}
	}
}

// TestKernelEdgeCases diffs the kernel's users against the reference on the
// hand-built shapes the settled table and the settled tail must get right.
func TestKernelEdgeCases(t *testing.T) {
	// f0 compiles cheaply at level 0 and dearly at level 1; f1 is cheap.
	p := &profile.Profile{
		Levels: 2,
		Funcs: []profile.FuncTimes{
			{Name: "f0", Compile: []int64{2, 10}, Exec: []int64{5, 1}},
			{Name: "f1", Compile: []int64{1, 4}, Exec: []int64{2, 1}},
		},
	}
	f0s := trace.New("f0s", []trace.FuncID{0, 0, 0, 0, 0, 0})
	cases := []struct {
		name  string
		tr    *trace.Trace
		sched Schedule
		cfg   Config
	}{
		// Versions of f0 finish at 2 and 12; the calls start at 2, 7 and
		// then exactly 12, the compile end, where the level-1 version is
		// already visible.
		{"exec clock lands on the compile end", f0s, Schedule{{0, 0}, {0, 1}}, DefaultConfig()},
		// The level-1 version finishes at 10, the later level-0 recompile
		// at 12: the final level is the lower one.
		{"lower-level recompile finishes last", f0s, Schedule{{0, 1}, {0, 0}}, DefaultConfig()},
		// On two workers f0's level-0 compile, queued last, finishes (7)
		// before its level-1 compile, queued first (10).
		{"out-of-order finish times", trace.New("mix", []trace.FuncID{0, 1, 0, 1, 0, 0, 1}),
			Schedule{{0, 1}, {1, 0}, {1, 1}, {0, 0}}, Config{CompileWorkers: 2}},
		{"empty trace", trace.New("empty", nil), Schedule{{0, 0}}, DefaultConfig()},
		{"uncompiled callee", trace.New("uncompiled", []trace.FuncID{0, 1}), Schedule{{0, 0}}, DefaultConfig()},
	}
	for _, tc := range cases {
		for _, opts := range []Options{{}, {RecordCalls: true}, {RecordCalls: true, ExecVariation: 0.5, ExecVariationSeed: 3}} {
			diffAgainstRef(t, tc.name, tc.tr, p, tc.sched, tc.cfg, opts)
		}
	}

	// PrefixSim has no up-front validation: its kernel must report the
	// uncompiled callee exactly as the reference loop does, before the
	// compile end and in the settled tail.
	for _, calls := range [][]trace.FuncID{{1, 0}, {0, 0, 0, 1}} {
		tr := trace.New("uncompiled", calls)
		versions := make([]versionList, 2)
		versions[0].insert(p.CompileTime(0, 0), 0)
		wantErr := refCalls(tr, p, versions, &Result{}, Options{})
		ps, err := NewPrefixSim(p, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.AppendCompile(CompileEvent{Func: 0, Level: 0}); err != nil {
			t.Fatal(err)
		}
		_, gotErr := ps.ExecCalls(nil, calls)
		if wantErr == nil || gotErr == nil || !reflect.DeepEqual(wantErr, gotErr) {
			t.Errorf("calls %v: PrefixSim error %v, reference %v", calls, gotErr, wantErr)
		}
	}
}

// TestEvaluatorMatchesRunErrors checks the failure paths return the same
// errors as the reference and the sim.Run wrapper.
func TestEvaluatorMatchesRunErrors(t *testing.T) {
	tr := trace.New("err", []trace.FuncID{0, 1, 0})
	p := testkit.Synth(2, profile.DefaultTiming(3, 7))
	eval, err := NewEvaluator(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		sched Schedule
		cfg   Config
		opts  Options
	}{
		{"uncompiled call", Schedule{{Func: 0, Level: 0}}, DefaultConfig(), Options{}},
		{"unknown func", Schedule{{Func: 5, Level: 0}}, DefaultConfig(), Options{}},
		{"bad level", Schedule{{Func: 0, Level: 9}}, DefaultConfig(), Options{}},
		{"bad workers", Schedule{{Func: 0, Level: 0}, {Func: 1, Level: 0}}, Config{}, Options{}},
		{"bad variation", Schedule{{Func: 0, Level: 0}, {Func: 1, Level: 0}}, DefaultConfig(), Options{ExecVariation: 2}},
		{"interrupted", Schedule{{Func: 0, Level: 0}, {Func: 1, Level: 0}}, DefaultConfig(), Options{Interrupt: closedChan()}},
	}
	for _, tc := range cases {
		_, wantErr := refRun(tr, p, tc.sched, tc.cfg, tc.opts)
		_, gotErr := eval.Run(tc.sched, tc.cfg, tc.opts)
		_, simErr := Run(tr, p, tc.sched, tc.cfg, tc.opts)
		if wantErr == nil || gotErr == nil || simErr == nil {
			t.Fatalf("%s: expected every path to fail, got reference=%v evaluator=%v sim.Run=%v", tc.name, wantErr, gotErr, simErr)
		}
		if wantErr.Error() != gotErr.Error() || wantErr.Error() != simErr.Error() {
			t.Errorf("%s: error mismatch:\n  reference: %v\n  evaluator: %v\n  sim.Run:   %v", tc.name, wantErr, gotErr, simErr)
		}
	}
}

// evalWorkload builds a generated trace with phases and bursts, its
// profile, and a schedule for it.
func evalWorkload(t testing.TB, seed int64) (*trace.Trace, *profile.Profile, Schedule) {
	t.Helper()
	tr := testkit.Gen(trace.GenConfig{
		Name: "eval", NumFuncs: 30, Length: 2000, Seed: seed,
		ZipfS: 1.5, Phases: 3, CoreFuncs: 6, CoreShare: 0.4, BurstMean: 3,
	})
	p := testkit.Synth(30, profile.DefaultTiming(4, seed+1))
	return tr, p, corpusSchedule(tr, p, seed+2)
}

// TestEvaluatorZeroAlloc is the arena contract: warm evaluator runs perform
// no heap allocation at all. Wired into the bench-guard Makefile target next
// to the recorder's zero-alloc guard.
func TestEvaluatorZeroAlloc(t *testing.T) {
	tr, p, sched := evalWorkload(t, 47)
	cfg := DefaultConfig()
	eval, err := NewEvaluator(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // warm the arenas
		if _, err := eval.Run(sched, cfg, Options{RecordCalls: true}); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := eval.Run(sched, cfg, Options{RecordCalls: true}); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Evaluator.Run allocates %v times per run, want 0", allocs)
	}
}

// TestEvaluatorPerCallBytes is the per-call memory budget, wired into
// `make bench-guard`: building an evaluator and running it once, cold, on an
// N-call trace allocates no per-call state at all — only a per-function,
// per-level allowance — and a warm Run allocates nothing. A RecordCalls run
// on the same evaluator still returns the reference loop's call starts and
// levels.
func TestEvaluatorPerCallBytes(t *testing.T) {
	const nf, n = 40, 200000
	tr := testkit.Gen(trace.GenConfig{
		Name: "bytes", NumFuncs: nf, Length: n, Seed: 11,
		ZipfS: 1.4, Phases: 2, CoreFuncs: 8, CoreShare: 0.4, BurstMean: 3,
	})
	p := testkit.Synth(nf, profile.DefaultTiming(4, 12))
	sched := corpusSchedule(tr, p, 13)
	cfg := DefaultConfig()
	budget := uint64(256 * nf * p.Levels)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eval, err := NewEvaluator(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eval.Run(sched, cfg, Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if cold := after.TotalAlloc - before.TotalAlloc; cold > budget {
		t.Errorf("cold NewEvaluator+Run on %d calls allocates %d B (%.1f B/call), budget %d",
			n, cold, float64(cold)/n, budget)
	} else {
		t.Logf("cold NewEvaluator+Run: %d B for %d calls, budget %d", cold, n, budget)
	}

	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := eval.Run(sched, cfg, Options{}); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Run allocates %v times per call, want 0", allocs)
	}

	recorded := Options{RecordCalls: true}
	want, err := refRun(tr, p, sched, cfg, recorded)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eval.Run(sched, cfg, recorded)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, "RecordCalls", want, got)
}

// TestEvalStats sanity-checks the process-wide counters and their summary.
func TestEvalStats(t *testing.T) {
	before := ReadEvalStats()
	tr, p, sched := evalWorkload(t, 61)
	eval, err := NewEvaluator(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := eval.Run(sched, DefaultConfig(), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	after := ReadEvalStats()
	if after.Evaluators-before.Evaluators < 1 || after.Runs-before.Runs < 3 || after.WarmRuns-before.WarmRuns < 2 {
		t.Errorf("counters did not advance as expected: before %+v after %+v", before, after)
	}
	if s := after.Summary(); !strings.Contains(s, "evaluators") || !strings.Contains(s, "runs") {
		t.Errorf("unexpected summary %q", s)
	}
}

// benchWorkload is a larger workload for the fast-path benchmarks.
func evalBenchWorkload(b *testing.B) (*trace.Trace, *profile.Profile, Schedule) {
	b.Helper()
	tr := testkit.Gen(trace.GenConfig{
		Name: "bench", NumFuncs: 200, Length: 40000, Seed: 5,
		ZipfS: 1.6, Phases: 4, CoreFuncs: 30, CoreShare: 0.4, BurstMean: 4,
	})
	p := testkit.Synth(200, profile.DefaultTiming(4, 6))
	return tr, p, corpusSchedule(tr, p, 7)
}

// BenchmarkSimRun measures the pooled sim.Run wrapper, which returns an owned
// Result, next to BenchmarkEvaluatorRun's held evaluator.
func BenchmarkSimRun(b *testing.B) {
	tr, p, sched := evalBenchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tr, p, sched, DefaultConfig(), Options{RecordCalls: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatorRun measures the warm allocation-free full evaluation.
func BenchmarkEvaluatorRun(b *testing.B) {
	tr, p, sched := evalBenchWorkload(b)
	eval, err := NewEvaluator(tr, p)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eval.Run(sched, DefaultConfig(), Options{RecordCalls: true}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Run(sched, DefaultConfig(), Options{RecordCalls: true}); err != nil {
			b.Fatal(err)
		}
	}
}
