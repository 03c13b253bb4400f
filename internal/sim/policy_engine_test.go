package sim_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dacapo"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// The policy engine's identical-results contract: RunPolicy and RunPolicyMT
// compute exactly what the scan-queue reference engines in
// policy_reference_test.go compute — every Result field, per-thread
// results, error values and the Recorder event stream — for every policy
// the repository ships, both disciplines, 1-3 compile workers, with and
// without execution-time variation, and across pooled-engine reuse.

// policyInput is one (trace, profile) pair with the sampling period its
// Jikes policies use.
type policyInput struct {
	name   string
	tr     *trace.Trace
	p      *profile.Profile
	period int64
}

// policyInputs are the fuzz seed corpus, two generated traces, the
// boundary input, and a prefix of a full-size DaCapo workload.
func policyInputs(t *testing.T) []policyInput {
	t.Helper()
	var in []policyInput
	for _, tr := range sim.CorpusTraces(t) {
		in = append(in, policyInput{tr.Name, tr, testkit.Synth(tr.NumFuncs(), profile.DefaultTiming(4, 11)), 300})
	}
	for _, seed := range []int64{3, 4} {
		tr := testkit.Gen(trace.GenConfig{
			Name: fmt.Sprintf("gen%d", seed), NumFuncs: 80, Length: 6000, Seed: seed,
			ZipfS: 1.5, Phases: 2, CoreFuncs: 12, CoreShare: 0.5, BurstMean: 2,
			WarmupFrac: 0.1, WarmupCoverage: 0.8,
		})
		in = append(in, policyInput{tr.Name, tr, testkit.Synth(80, profile.DefaultTiming(3, seed)), 2000})
	}
	return append(in, boundaryInput(), jythonPrefix(t, 10000))
}

// boundaryInput puts the engine's event boundaries on top of each other.
// Every exec and compile time is a multiple of 4 and the sampling period is
// 8, so sampling ticks land exactly at call ends, and a call of 4 ticks
// that ends on a tick may run quietly. The cheapest functions' recompiles
// take no time, so a compilation that commits at a call's start also
// finishes there, and the call must see it: with one worker the Planned
// policy's queue commits one exactly at the start of a call that is
// otherwise quiet.
func boundaryInput() policyInput {
	rng := rand.New(rand.NewSource(45))
	nf := 2 + rng.Intn(5)
	p := &profile.Profile{Levels: 3, Funcs: make([]profile.FuncTimes, nf)}
	for f := range p.Funcs {
		k := int64(f%3 + 1)
		p.Funcs[f] = profile.FuncTimes{
			Name: fmt.Sprintf("f%d", f), Size: 100 * k,
			Compile: []int64{4 * k, 8 * (k - 1), 4 * (k - 1)}, Exec: []int64{12 * k, 8 * k, 4},
		}
	}
	calls := make([]trace.FuncID, 300)
	for i := range calls {
		// Runs of one function, so settled calls follow each other.
		if i == 0 || rng.Intn(4) == 0 {
			calls[i] = trace.FuncID(rng.Intn(nf))
		} else {
			calls[i] = calls[i-1]
		}
	}
	return policyInput{"boundary", trace.New("boundary", calls), p, 8}
}

func jythonPrefix(t *testing.T, calls int) policyInput {
	t.Helper()
	b, err := dacapo.ByName("jython")
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.LoadPrefix(1, calls)
	if err != nil {
		t.Fatal(err)
	}
	return policyInput{"jython-prefix", w.Trace, w.Profile, b.SamplePeriod}
}

// policyMaker builds a fresh single-use policy.
type policyMaker struct {
	name string
	mk   func() sim.Policy
}

// policyMakers are Jikes, organizer-batched Jikes, V8, Planned, OnDemand,
// a third-call promoter and a per-sample promoter for the input.
func policyMakers(t *testing.T, in policyInput) []policyMaker {
	t.Helper()
	p, nf := in.p, in.p.NumFuncs()
	model := profile.NewEstimated(p, profile.DefaultEstimatedConfig(1))
	must := func(pol sim.Policy, err error) sim.Policy {
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	plan := sim.CorpusSchedule(in.tr, p, 5)
	levels := make([]profile.Level, nf)
	for f := range levels {
		levels[f] = profile.Level(f % p.Levels)
	}
	return []policyMaker{
		{"jikes", func() sim.Policy { return must(policy.NewJikes(model, nf, in.period)) }},
		{"jikes-organizer", func() sim.Policy {
			return must(policy.NewJikesOrganizer(model, nf, max(in.period/4, 1), in.period))
		}},
		{"v8", func() sim.Policy { return must(policy.NewV8(profile.Level(p.Levels - 1))) }},
		{"planned", func() sim.Policy { return policy.NewPlanned(plan) }},
		{"ondemand", func() sim.Policy { return policy.NewOnDemand(levels) }},
		{"third-call", func() sim.Policy { return &thirdCallPromoter{high: profile.Level(p.Levels - 1), nf: nf} }},
		{"tick-sampler", func() sim.Policy { return newTickSampler(nf, p.Levels, in.period) }},
	}
}

// thirdCallPromoter compiles at level 0, and at a function's third
// invocation promotes it and its successor in ID order to high: a
// BeforeCall limit of 3, one past V8's, and a hook that reaches another
// function, as a call-graph-guided prefetcher's would.
type thirdCallPromoter struct {
	high profile.Level
	nf   int
	req  [2]sim.Request
}

func (tc *thirdCallPromoter) FirstCall(trace.FuncID, int64) profile.Level { return 0 }
func (tc *thirdCallPromoter) BeforeCall(f trace.FuncID, nth, now int64) []sim.Request {
	if nth != 3 {
		return nil
	}
	tc.req[0] = sim.Request{Func: f, Level: tc.high}
	tc.req[1] = sim.Request{Func: (f + 1) % trace.FuncID(tc.nf), Level: tc.high}
	return tc.req[:]
}
func (tc *thirdCallPromoter) BeforeCallLimit() int64                   { return 3 }
func (tc *thirdCallPromoter) Sample(trace.FuncID, int64) []sim.Request { return nil }
func (tc *thirdCallPromoter) SamplePeriod() int64                      { return 0 }

// tickSampler promotes the sampled function one level per sample, so a
// run's compilations depend on which call each tick lands in — on the
// boundary input, whether a tick at a call's end is counted for that call
// or the next.
type tickSampler struct {
	period int64
	levels profile.Level
	last   []profile.Level
	req    [1]sim.Request
}

func newTickSampler(nf, levels int, period int64) *tickSampler {
	return &tickSampler{period: period, levels: profile.Level(levels), last: make([]profile.Level, nf)}
}

func (ts *tickSampler) FirstCall(trace.FuncID, int64) profile.Level         { return 0 }
func (ts *tickSampler) BeforeCall(trace.FuncID, int64, int64) []sim.Request { return nil }
func (ts *tickSampler) BeforeCallLimit() int64                              { return 0 }
func (ts *tickSampler) Sample(f trace.FuncID, now int64) []sim.Request {
	if ts.last[f]+1 >= ts.levels {
		return nil
	}
	ts.last[f]++
	ts.req[0] = sim.Request{Func: f, Level: ts.last[f]}
	return ts.req[:]
}
func (ts *tickSampler) SamplePeriod() int64 { return ts.period }

// hookCounter forwards to a policy and checks the engine's side of the
// BeforeCall contract: each function's hooks arrive with nth = 1, 2, ...
// and stop after BeforeCallLimit of them.
type hookCounter struct {
	sim.Policy
	seen map[trace.FuncID]int64
	bad  error
}

func (h *hookCounter) BeforeCall(f trace.FuncID, nth, now int64) []sim.Request {
	if h.bad == nil && (nth != h.seen[f]+1 || nth > h.Policy.BeforeCallLimit()) {
		h.bad = fmt.Errorf("BeforeCall(f%d, nth=%d) after %d hooks, limit %d", f, nth, h.seen[f], h.Policy.BeforeCallLimit())
	}
	h.seen[f] = nth
	return h.Policy.BeforeCall(f, nth, now)
}

// check reports a hook out of sequence, or a function whose hook count is
// not min(calls, limit) over the threads' calls.
func (h *hookCounter) check(threads []*trace.Trace) error {
	if h.bad != nil {
		return h.bad
	}
	calls := make(map[trace.FuncID]int64)
	for _, tr := range threads {
		for _, f := range tr.Calls {
			calls[f]++
		}
	}
	for f, n := range calls {
		if want := min(n, h.Policy.BeforeCallLimit()); h.seen[f] != want {
			return fmt.Errorf("f%d: %d BeforeCall hooks over %d calls, want %d", f, h.seen[f], n, want)
		}
	}
	return nil
}

// diffPolicyRun runs one instance through RunPolicy and the reference and
// diffs errors, every Result field, and — in a second pass with a Recorder
// attached — the recorded event stream.
func diffPolicyRun(t *testing.T, tag string, tr *trace.Trace, p *profile.Profile, mk func() sim.Policy, cfg sim.Config, opts sim.Options) {
	t.Helper()
	want, wantErr := sim.RefRunPolicy(tr, p, mk(), cfg, opts)
	hooks := &hookCounter{Policy: mk(), seen: map[trace.FuncID]int64{}}
	got, gotErr := sim.RunPolicy(tr, p, hooks, cfg, opts)
	if !reflect.DeepEqual(wantErr, gotErr) {
		t.Fatalf("%s: error mismatch: reference=%v got=%v", tag, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	sim.DiffResults(t, tag, want, got)
	if err := hooks.check([]*trace.Trace{tr}); err != nil {
		t.Errorf("%s: %v", tag, err)
	}

	wantRec, gotRec := obs.NewRecorder(), obs.NewRecorder()
	ropts := opts
	ropts.Recorder = wantRec
	if _, err := sim.RefRunPolicy(tr, p, mk(), cfg, ropts); err != nil {
		t.Fatal(err)
	}
	ropts.Recorder = gotRec
	if _, err := sim.RunPolicy(tr, p, mk(), cfg, ropts); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantRec.Events(), gotRec.Events()) {
		t.Errorf("%s: recorded events differ from the reference's", tag)
	}
}

// diffPolicyRunMT is diffPolicyRun for the multi-threaded engine.
func diffPolicyRunMT(t *testing.T, tag string, threads []*trace.Trace, p *profile.Profile, mk func() sim.Policy, cfg sim.Config, opts sim.Options) {
	t.Helper()
	want, wantThreads, wantErr := sim.RefRunPolicyMT(threads, p, mk(), cfg, opts)
	hooks := &hookCounter{Policy: mk(), seen: map[trace.FuncID]int64{}}
	got, gotThreads, gotErr := sim.RunPolicyMT(threads, p, hooks, cfg, opts)
	if !reflect.DeepEqual(wantErr, gotErr) {
		t.Fatalf("%s: error mismatch: reference=%v got=%v", tag, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	sim.DiffResults(t, tag, want, got)
	if err := hooks.check(threads); err != nil {
		t.Errorf("%s: %v", tag, err)
	}
	if !reflect.DeepEqual(wantThreads, gotThreads) {
		t.Errorf("%s: per-thread results differ: reference=%v got=%v", tag, wantThreads, gotThreads)
	}
}

var (
	disciplines = []sim.QueueDiscipline{sim.FIFO, sim.FirstCompileFirst}
	variation   = sim.Options{ExecVariation: 0.5, ExecVariationSeed: 7}
)

func TestRunPolicyMatchesReference(t *testing.T) {
	for _, in := range policyInputs(t) {
		for _, pm := range policyMakers(t, in) {
			for _, d := range disciplines {
				for w := 1; w <= 3; w++ {
					for _, opts := range []sim.Options{
						{},
						{RecordCalls: true},
						{RecordCalls: true, ExecVariation: variation.ExecVariation, ExecVariationSeed: variation.ExecVariationSeed},
					} {
						tag := fmt.Sprintf("%s/%s/%v/w%d/rec=%v/var=%g", in.name, pm.name, d, w, opts.RecordCalls, opts.ExecVariation)
						diffPolicyRun(t, tag, in.tr, in.p, pm.mk, sim.Config{CompileWorkers: w, Discipline: d}, opts)
					}
				}
			}
		}
	}
}

// splitThreads deals a trace's calls round-robin onto n threads.
func splitThreads(tr *trace.Trace, n int) []*trace.Trace {
	calls := make([][]trace.FuncID, n)
	for i, f := range tr.Calls {
		calls[i%n] = append(calls[i%n], f)
	}
	out := make([]*trace.Trace, n)
	for i := range out {
		out[i] = trace.New(fmt.Sprintf("%s/t%d", tr.Name, i), calls[i])
	}
	return out
}

func TestRunPolicyMTMatchesReference(t *testing.T) {
	type mtInput struct {
		in      policyInput
		threads []*trace.Trace
	}
	var inputs []mtInput
	for _, in := range policyInputs(t) {
		inputs = append(inputs, mtInput{in, splitThreads(in.tr, 3)})
	}
	for _, name := range []string{"jython", "lusearch"} {
		b, err := dacapo.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		threads, p, err := b.LoadThreads(0.02, 4)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, mtInput{policyInput{name + "-threads", threads[0], p, b.SamplePeriod}, threads})
	}
	for _, mi := range inputs {
		for _, pm := range policyMakers(t, mi.in) {
			for _, d := range disciplines {
				for w := 1; w <= 3; w++ {
					for _, opts := range []sim.Options{{}, variation} {
						tag := fmt.Sprintf("%s/%s/%v/w%d/var=%g", mi.in.name, pm.name, d, w, opts.ExecVariation)
						diffPolicyRunMT(t, tag, mi.threads, mi.in.p, pm.mk, sim.Config{CompileWorkers: w, Discipline: d}, opts)
					}
				}
			}
		}
	}
}

// failingPolicy wraps a policy and requests an out-of-range level at the
// n-th call, failing the run mid-trace.
type failingPolicy struct {
	sim.Policy
	n, calls int
}

func (fp *failingPolicy) BeforeCall(f trace.FuncID, nth int64, now int64) []sim.Request {
	if fp.calls++; fp.calls == fp.n {
		return []sim.Request{{Func: f, Level: 99}}
	}
	return fp.Policy.BeforeCall(f, nth, now)
}

// BeforeCallLimit implements sim.Policy: the failing call is counted over
// every call.
func (fp *failingPolicy) BeforeCallLimit() int64 { return math.MaxInt64 }

// TestRunPolicyPoolHygiene checks that a pooled engine carries nothing from
// one run into the next: a large-nf run followed by a small-nf run, and a
// run that fails mid-trace followed by a clean one, all match the reference.
func TestRunPolicyPoolHygiene(t *testing.T) {
	large := jythonPrefix(t, 10000)
	tr := sim.CorpusTraces(t)[0]
	small := policyInput{tr.Name, tr, testkit.Synth(tr.NumFuncs(), profile.DefaultTiming(4, 11)), 300}
	cfg := sim.Config{CompileWorkers: 2, Discipline: sim.FirstCompileFirst}
	for round := 0; round < 2; round++ {
		for _, in := range []policyInput{large, small, large} {
			for _, pm := range policyMakers(t, in) {
				tag := fmt.Sprintf("round %d/%s/%s", round, in.name, pm.name)
				diffPolicyRun(t, tag, in.tr, in.p, pm.mk, cfg, sim.Options{RecordCalls: true})
				diffPolicyRunMT(t, tag+"/mt", splitThreads(in.tr, 2), in.p, pm.mk, cfg, sim.Options{})

				fail := func() sim.Policy { return &failingPolicy{Policy: pm.mk(), n: in.tr.Len() / 2} }
				diffPolicyRun(t, tag+"/failing", in.tr, in.p, fail, cfg, sim.Options{})
				if _, err := sim.RunPolicy(in.tr, in.p, fail(), cfg, sim.Options{}); err == nil {
					t.Fatalf("%s: failing policy did not fail the run", tag)
				}
				diffPolicyRunMT(t, tag+"/mt-failing", splitThreads(in.tr, 2), in.p, fail, cfg, sim.Options{})
				diffPolicyRun(t, tag+"/after-failure", in.tr, in.p, pm.mk, cfg, sim.Options{})
			}
		}
	}
}

// TestRunPolicyConcurrent runs both engines from several goroutines at once
// (as the server's workers do), so pooled engines are borrowed
// concurrently; every result must still match the reference.
func TestRunPolicyConcurrent(t *testing.T) {
	type job struct {
		in           policyInput
		mk           func() sim.Policy
		want, wantMT *sim.Result
	}
	cfg := sim.Config{CompileWorkers: 2, Discipline: sim.FirstCompileFirst}
	var jobs []job
	for _, in := range policyInputs(t) {
		for _, pm := range policyMakers(t, in) {
			want, err := sim.RefRunPolicy(in.tr, in.p, pm.mk(), cfg, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantMT, _, err := sim.RefRunPolicyMT(splitThreads(in.tr, 2), in.p, pm.mk(), cfg, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{in, pm.mk, want, wantMT})
		}
	}
	const goroutines = 4
	// Policies are single-use; build each goroutine's on this goroutine.
	pols := make([][2][]sim.Policy, goroutines)
	for g := range pols {
		for k := range pols[g] {
			for _, j := range jobs {
				pols[g][k] = append(pols[g][k], j.mk())
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range jobs {
				i := (n + g*len(jobs)/goroutines) % len(jobs)
				j := jobs[i]
				got, err := sim.RunPolicy(j.in.tr, j.in.p, pols[g][0][i], cfg, sim.Options{})
				if err != nil || !reflect.DeepEqual(got, j.want) {
					t.Errorf("goroutine %d: RunPolicy on %s job %d differs from the reference (err %v)", g, j.in.name, i, err)
				}
				mt, _, err := sim.RunPolicyMT(splitThreads(j.in.tr, 2), j.in.p, pols[g][1][i], cfg, sim.Options{})
				if err != nil || !reflect.DeepEqual(mt, j.wantMT) {
					t.Errorf("goroutine %d: RunPolicyMT on %s job %d differs from the reference (err %v)", g, j.in.name, i, err)
				}
			}
		}(g)
	}
	wg.Wait()
}
