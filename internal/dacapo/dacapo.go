// Package dacapo defines the nine synthetic workloads standing in for the
// paper's DaCapo 2006 benchmarks (Table 1). Function counts, the
// parallel/sequential split, and the full call-sequence lengths match the
// table; the call sequences themselves and per-level timings are generated
// deterministically, since the original Jikes RVM traces are not available
// (see DESIGN.md §2 for the substitution argument).
//
// Each benchmark gets its own generator flavour — hotness skew, phase count,
// warmup share, burstiness — so the suite spans the same qualitative range
// the paper's figures show: from loop-dominated lusearch/luindex to the
// cold-code-heavy eclipse whose single-level schemes misbehave
// spectacularly.
package dacapo

import (
	"fmt"
	"sync"

	"repro/internal/profile"
	"repro/internal/trace"
)

// Benchmark describes one synthetic DaCapo workload.
type Benchmark struct {
	// Name is the DaCapo benchmark name.
	Name string
	// Parallel records Table 1's parallelism column. As in the paper, the
	// calls of a parallel benchmark's threads are flattened into one
	// sequence.
	Parallel bool
	// Funcs is the number of distinct functions (Table 1).
	Funcs int
	// FullLength is the call-sequence length of the original trace
	// (Table 1).
	FullLength int
	// DefaultSeconds is Table 1's default running time, for reporting.
	DefaultSeconds float64
	// ScaledLength is the default generated length (Scale == 1); it keeps
	// experiments laptop-fast while preserving each benchmark's hotness
	// structure. Scale up toward FullLength/ScaledLength for full size.
	ScaledLength int
	// SamplePeriod is the Jikes sampler period in ticks for this workload,
	// chosen so a run sees on the order of a hundred samples — the same
	// samples-per-run magnitude as 10 ms sampling against the seconds-long
	// original runs.
	SamplePeriod int64

	gen    trace.GenConfig
	timing profile.TimingConfig
	seed   int64
	// shared holds the profile and default model every load of this suite
	// benchmark reuses; nil for a Benchmark built outside the suite.
	shared *shared
}

// shared is one suite benchmark's timing profile, default cost model, and
// two-level profile. All three depend on the benchmark alone — not on scale,
// run, or prefix — so each is built once, on first use, and handed to every
// later caller. The nine entries are bounded by the suite and never evicted.
type shared struct {
	profileOnce sync.Once
	profile     *profile.Profile
	profileErr  error

	modelOnce sync.Once
	model     *profile.Estimated

	twoLevelOnce sync.Once
	twoLevel     *profile.Profile
	twoLevelErr  error
}

// suiteShared backs Benchmark.shared, in suite order.
var suiteShared [9]shared

// Workload is a loaded benchmark: its call sequence and timing profile.
type Workload struct {
	Bench Benchmark
	Trace *trace.Trace
	// Profile is, for a suite benchmark, the one profile every Load,
	// LoadPrefix, LoadRun and LoadThreads of that benchmark returns. Like a
	// Trace's memoized indices it is shared between callers — treat it as
	// read-only, and Clone it to derive a variant.
	Profile *profile.Profile
}

// suite returns the benchmark definitions. Generator parameters vary by
// benchmark: skew (ZipfS), phase structure, warmup coverage, and burstiness
// shape how hot, phased, and cold-code-heavy each workload is.
func suite() []Benchmark {
	mk := func(name string, parallel bool, funcs, fullLen int, secs float64,
		scaledLen int, period int64, seed int64,
		zipf float64, phases int, coreShare, warmFrac, warmCov, burst float64,
		execMedian float64) Benchmark {
		b := Benchmark{
			Name: name, Parallel: parallel, Funcs: funcs, FullLength: fullLen,
			DefaultSeconds: secs, ScaledLength: scaledLen, SamplePeriod: period,
			seed: seed,
		}
		b.gen = trace.GenConfig{
			Name: name, NumFuncs: funcs, Length: scaledLen, Seed: seed,
			ZipfS: zipf, Phases: phases, CoreFuncs: funcs / 10, CoreShare: coreShare,
			BurstMean: burst, WarmupFrac: warmFrac, WarmupCoverage: warmCov,
		}
		b.timing = profile.DefaultTiming(4, seed+1)
		b.timing.ExecMedian = execMedian
		return b
	}
	bs := []Benchmark{
		//  name      par    funcs fullLen    secs  scaled  period  seed zipf ph core warm  cov  burst exec
		mk("antlr", false, 1187, 2403584, 1.6, 240000, 400000, 101, 1.45, 4, 0.55, 0.08, 0.80, 3, 110),
		mk("bloat", false, 1581, 9423445, 5.0, 315000, 500000, 102, 1.40, 6, 0.50, 0.07, 0.75, 3, 120),
		mk("eclipse", false, 2194, 467372, 28.4, 230000, 600000, 103, 1.30, 5, 0.45, 0.12, 0.90, 2, 140),
		mk("fop", false, 1927, 1323119, 1.5, 260000, 450000, 104, 1.35, 4, 0.50, 0.10, 0.85, 2, 100),
		mk("hsqldb", true, 1006, 8022794, 2.9, 265000, 450000, 105, 1.50, 5, 0.55, 0.06, 0.70, 4, 110),
		mk("jython", false, 2128, 23655473, 6.7, 295000, 500000, 106, 1.50, 5, 0.55, 0.06, 0.75, 3, 120),
		mk("luindex", false, 641, 20582610, 6.1, 255000, 350000, 107, 1.70, 3, 0.60, 0.04, 0.65, 6, 100),
		mk("lusearch", true, 543, 43573214, 3.2, 290000, 350000, 108, 1.80, 3, 0.60, 0.03, 0.60, 6, 90),
		mk("pmd", false, 1876, 12543579, 3.5, 250000, 500000, 109, 1.40, 5, 0.50, 0.08, 0.80, 3, 115),
	}
	for i := range bs {
		bs[i].shared = &suiteShared[i]
	}
	return bs
}

// Suite returns the nine benchmarks in Table 1 order.
func Suite() []Benchmark { return suite() }

// Names returns the benchmark names in Table 1 order.
func Names() []string {
	bs := suite()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name
	}
	return names
}

// ByName looks a benchmark up by its DaCapo name.
func ByName(name string) (Benchmark, error) {
	for _, b := range suite() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("dacapo: unknown benchmark %q (have %v)", name, Names())
}

// genConfig returns the generator configuration for scale: ScaledLength
// times scale calls, clamped to [minLen, FullLength].
func (b Benchmark) genConfig(scale float64, minLen int) (trace.GenConfig, error) {
	if scale <= 0 {
		return trace.GenConfig{}, fmt.Errorf("dacapo: scale must be positive, got %g", scale)
	}
	gen := b.gen
	gen.Length = max(min(int(float64(b.ScaledLength)*scale), b.FullLength), minLen)
	return gen, nil
}

// Load generates the benchmark's trace and timing profile. scale multiplies
// ScaledLength; it is clamped to [1 call, FullLength]. Load(1) is the
// default experimental size. The profile is shared; see Workload.Profile.
func (b Benchmark) Load(scale float64) (*Workload, error) { return b.LoadPrefix(scale, 0) }

// LoadPrefix is Load(scale) with the trace cut to its first maxCalls calls
// (maxCalls <= 0 keeps all of them). Only the prefix is generated, so a
// caller that keeps maxCalls of a long trace pays for maxCalls; the calls are
// bit-identical to Load's.
func (b Benchmark) LoadPrefix(scale float64, maxCalls int) (*Workload, error) {
	gen, err := b.genConfig(scale, 1)
	if err != nil {
		return nil, err
	}
	n := gen.Length
	if maxCalls > 0 && maxCalls < n {
		n = maxCalls
	}
	var tr *trace.Trace
	if b.Parallel {
		tr, err = generateParallel(gen, n)
	} else {
		tr, err = trace.GeneratePrefix(gen, n)
	}
	if err != nil {
		return nil, fmt.Errorf("dacapo: %s: %w", b.Name, err)
	}
	p, err := b.profile()
	if err != nil {
		return nil, fmt.Errorf("dacapo: %s: %w", b.Name, err)
	}
	return &Workload{Bench: b, Trace: tr, Profile: p}, nil
}

// threadConfigs splits a generator configuration into per-thread ones: the
// main thread carries the warmup (class loading happens once), worker
// threads run the steady workload; all share the program structure.
func threadConfigs(gen trace.GenConfig, threads int) []trace.GenConfig {
	baseDraw := gen.DrawSeed
	if baseDraw == 0 {
		baseDraw = gen.Seed
	}
	per := make([]trace.GenConfig, threads)
	for t := range per {
		g := gen
		g.Length = gen.Length / threads
		if t == 0 {
			g.Length += gen.Length % threads
		} else {
			g.WarmupFrac = 0 // workers load no classes
		}
		g.DrawSeed = baseDraw + int64(t+1)*131
		per[t] = g
	}
	return per
}

// generateParallel builds the first n calls of a multithreaded benchmark's
// trace as the paper's collection framework does (§6.1): per-thread call
// sequences flattened into one, in rough invocation-timing order. Each
// thread generates only the calls an n-call prefix can take from it.
func generateParallel(gen trace.GenConfig, n int) (*trace.Trace, error) {
	cfgs := threadConfigs(gen, 4)
	per := make([]*trace.Trace, len(cfgs))
	lens := make([]int, len(cfgs))
	for t, g := range cfgs {
		tt, err := trace.GeneratePrefix(g, n)
		if err != nil {
			return nil, err
		}
		per[t], lens[t] = tt, g.Length
	}
	baseDraw := gen.DrawSeed
	if baseDraw == 0 {
		baseDraw = gen.Seed
	}
	return trace.InterleavePrefix(baseDraw+977, lens, n, per...)
}

// LoadThreads generates the benchmark as per-thread call sequences for
// multi-threaded simulation (sim.RunPolicyMT), instead of the flattened
// single sequence the paper's model uses. Any benchmark can be loaded this
// way; thread 0 carries the warmup. The profile is shared; see
// Workload.Profile.
func (b Benchmark) LoadThreads(scale float64, threads int) ([]*trace.Trace, *profile.Profile, error) {
	gen, err := b.genConfig(scale, threads)
	if err != nil {
		return nil, nil, err
	}
	if threads < 1 {
		return nil, nil, fmt.Errorf("dacapo: thread count must be >= 1, got %d", threads)
	}
	cfgs := threadConfigs(gen, threads)
	per := make([]*trace.Trace, len(cfgs))
	for t, g := range cfgs {
		if per[t], err = trace.Generate(g); err != nil {
			return nil, nil, fmt.Errorf("dacapo: %s: %w", b.Name, err)
		}
	}
	p, err := b.profile()
	if err != nil {
		return nil, nil, fmt.Errorf("dacapo: %s: %w", b.Name, err)
	}
	return per, p, nil
}

// LoadRun generates one particular *run* of the benchmark: the same program
// (identical timing profile) exercised on a different input, modeled as a
// different trace seed. Run 0 equals Load. Cross-run learning experiments
// (§8) train on several runs and evaluate on an unseen one.
func (b Benchmark) LoadRun(scale float64, run int) (*Workload, error) {
	if run < 0 {
		return nil, fmt.Errorf("dacapo: run index must be non-negative, got %d", run)
	}
	return b.run(run).LoadPrefix(scale, 0)
}

// run returns the benchmark as it behaves on input run: same program
// structure (same Seed), so only the stochastic draws change.
func (b Benchmark) run(run int) Benchmark {
	if run > 0 {
		b.gen.DrawSeed = b.seed + int64(run)*7919
	}
	return b
}

// profile returns the benchmark's timing profile: the shared one for a suite
// benchmark, built on first use.
func (b Benchmark) profile() (*profile.Profile, error) {
	sh := b.shared
	if sh == nil {
		return profile.Synthesize(b.Funcs, b.timing)
	}
	sh.profileOnce.Do(func() { sh.profile, sh.profileErr = profile.Synthesize(b.Funcs, b.timing) })
	return sh.profile, sh.profileErr
}

// DefaultModel returns the workload's default (Jikes-like, estimated)
// cost-benefit model, deterministic per benchmark. A workload carrying its
// suite benchmark's shared profile gets the shared model, built once; like
// the profile it is read-only.
func (w *Workload) DefaultModel() *profile.Estimated {
	cfg := profile.DefaultEstimatedConfig(w.Bench.seed + 2)
	if sh := w.Bench.shared; sh != nil {
		if p, err := w.Bench.profile(); err == nil && p == w.Profile {
			sh.modelOnce.Do(func() { sh.model = profile.NewEstimated(p, cfg) })
			return sh.model
		}
	}
	return profile.NewEstimated(w.Profile, cfg)
}

// TwoLevelProfile returns the workload's profile restricted to its two
// lowest levels, V8's low/high pair (Figure 8 and the v8 policy). A
// workload carrying its suite benchmark's shared profile gets the shared
// restriction, built once; like the profile it is read-only.
func (w *Workload) TwoLevelProfile() (*profile.Profile, error) {
	if sh := w.Bench.shared; sh != nil {
		if p, err := w.Bench.profile(); err == nil && p == w.Profile {
			sh.twoLevelOnce.Do(func() { sh.twoLevel, sh.twoLevelErr = p.Restrict(0, 1) })
			return sh.twoLevel, sh.twoLevelErr
		}
	}
	return w.Profile.Restrict(0, 1)
}

// Oracle returns the oracle cost-benefit model of §6.2.2.
func (w *Workload) Oracle() profile.Oracle { return profile.NewOracle(w.Profile) }
