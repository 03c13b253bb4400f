package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/online"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// online-stream: online.Run over one long seeded multi-cohort stream. A
// round replays it once per scheduler: the replanning IAR at a short and a
// long lookahead window and unbounded, and the V8-style prefetcher as the
// control that never plans.

type onlineOp struct {
	Name   string
	Sched  string // "iar" or "v8"
	Window int    // 0 means unbounded
}

func onlineOps(tiny bool) []onlineOp {
	short, long := 512, 4096
	if tiny {
		short, long = 64, 512
	}
	return []onlineOp{
		{Name: fmt.Sprintf("iar-w%d", short), Sched: "iar", Window: short},
		{Name: fmt.Sprintf("iar-w%d", long), Sched: "iar", Window: long},
		{Name: "iar-unbounded", Sched: "iar", Window: 0},
		{Name: fmt.Sprintf("v8-w%d", long), Sched: "v8", Window: long},
	}
}

// onlineSpec is the stream: four DaCapo cohorts over a steady, a Poisson
// and a bursty phase, 240k calls. The seed drives every draw of the render.
func onlineSpec(seed int64, tiny bool) *workload.Spec {
	length, scale := 240000, 0.2
	if tiny {
		length, scale = 6000, 0.01
	}
	return &workload.Spec{
		Name: "perfbench-stream", Seed: seed, Length: length,
		Cohorts: []workload.Cohort{
			{Bench: "antlr", Scale: scale}, {Bench: "luindex", Scale: scale},
			{Bench: "pmd", Scale: scale}, {Bench: "hsqldb", Scale: scale},
		},
		Phases: []workload.Phase{
			{Weight: 1, Process: workload.ProcessSteady, Mix: []float64{3, 1, 1, 0}},
			{Weight: 1, Process: workload.ProcessPoisson},
			{Weight: 1, Process: workload.ProcessBursty, BurstMean: 16, Mix: []float64{0, 1, 1, 3}},
		},
	}
}

// onlineInput is the rendered stream plus its offline references.
type onlineInput struct {
	tr         *trace.Trace
	p          *profile.Profile
	lowerBound int64
	offline    sim.Schedule
	offlineMS  int64
}

func setupOnline(spec *workload.Spec, t *tracer) (*onlineInput, error) {
	s := t.begin("workload.render", noSpan, noSpan)
	tr, p, err := spec.Render()
	t.end(s)
	if err != nil {
		return nil, err
	}
	in := &onlineInput{tr: tr, p: p}
	s = t.begin("core.lower_bound", noSpan, noSpan)
	in.lowerBound = core.LowerBound(tr, p)
	t.end(s)
	s = t.begin("core.iar", noSpan, noSpan)
	in.offline, err = core.IAR(tr, p, core.IAROptions{})
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin("sim.run", noSpan, noSpan)
	res, err := sim.Run(tr, p, in.offline, sim.DefaultConfig(), sim.Options{})
	t.end(s)
	if err != nil {
		return nil, err
	}
	in.offlineMS = res.MakeSpan
	return in, nil
}

// timedScheduler wraps a scheduler to time every Observe call and record a
// span for each one that replanned. It forwards SchedStats.
type timedScheduler struct {
	inner     online.Scheduler
	t         *tracer
	op, run   int32
	observeNS int64
	replans   int64
	samples   []replanSample
}

type replanSample struct {
	Call int
	US   float64
}

func (s *timedScheduler) Observe(i int, visible *trace.Trace, now int64) ([]sim.CompileEvent, error) {
	t0 := time.Now()
	ev, err := s.inner.Observe(i, visible, now)
	t1 := time.Now()
	s.observeNS += t1.Sub(t0).Nanoseconds()
	if sr, ok := s.inner.(online.StatsReporter); ok {
		if r := sr.SchedStats().Replans; r != s.replans {
			s.replans = r
			s.samples = append(s.samples, replanSample{Call: i, US: float64(t1.Sub(t0).Nanoseconds()) / 1e3})
			s.t.add("online.replan", s.op, s.run, t0, t1)
		}
	}
	return ev, err
}

// SchedStats forwards the wrapped scheduler's accounting.
func (s *timedScheduler) SchedStats() online.SchedStats {
	if sr, ok := s.inner.(online.StatsReporter); ok {
		return sr.SchedStats()
	}
	return online.SchedStats{}
}

type onlineOutcome struct {
	res   *online.Result
	wrap  *timedScheduler // nil when untraced
	stats online.SchedStats
	// runNS is the run's CPU time; wallNS its wall time, on the clock the
	// wrapper times Observe with.
	runNS  int64
	wallNS int64
}

func onlineRunOp(o onlineOp, in *onlineInput, t *tracer, op int32) (*onlineOutcome, error) {
	var sched online.Scheduler
	if o.Sched == "iar" {
		sched = online.NewIAR(in.p, core.IAROptions{}, 0)
	} else {
		v8, err := online.NewV8Style(in.p, profile.Level(in.p.Levels-1))
		if err != nil {
			return nil, err
		}
		sched = v8
	}
	out := &onlineOutcome{}
	root := t.begin("op.online", op, noSpan)
	defer t.end(root)
	run := t.begin("online.run", op, root)
	if t.enabled() {
		out.wrap = &timedScheduler{inner: sched, t: t, op: op, run: run}
		sched = out.wrap
	}
	t0, c0 := time.Now(), cpuTime()
	res, err := online.Run(in.tr, in.p, sched, online.Options{Window: o.Window, Config: sim.DefaultConfig()})
	out.runNS = (cpuTime() - c0).Nanoseconds()
	out.wallNS = time.Since(t0).Nanoseconds()
	t.end(run)
	if err != nil {
		return nil, err
	}
	out.res = res
	if sr, ok := sched.(online.StatsReporter); ok {
		out.stats = sr.SchedStats()
	}
	return out, nil
}

// checkOnline checks the invariants: make-span at or above the §5.2 bound,
// and an unbounded IAR run equal to offline IAR, schedule and make-span.
func checkOnline(o onlineOp, in *onlineInput, res *online.Result) error {
	if res.Sim.MakeSpan < in.lowerBound {
		return fmt.Errorf("make-span %d below the lower bound %d", res.Sim.MakeSpan, in.lowerBound)
	}
	if o.Sched == "iar" && o.Window == 0 {
		if res.Sim.MakeSpan != in.offlineMS {
			return fmt.Errorf("unbounded make-span %d differs from offline IAR's %d", res.Sim.MakeSpan, in.offlineMS)
		}
		if len(res.Schedule) != len(in.offline) {
			return fmt.Errorf("unbounded schedule has %d events, offline IAR %d", len(res.Schedule), len(in.offline))
		}
		for i := range res.Schedule {
			if res.Schedule[i] != in.offline[i] {
				return fmt.Errorf("unbounded schedule differs from offline IAR at event %d", i)
			}
		}
	}
	return nil
}

func runOnline(cfg config, t *tracer) (*report, error) {
	rep := newReport()
	spec := onlineSpec(cfg.Seed, cfg.Tiny)
	ops := onlineOps(cfg.Tiny)
	var in *onlineInput
	t.on = cfg.Trace
	setup, err := timeSetup(func() (err error) {
		in, err = setupOnline(spec, t)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.E2E["setup_s"] = setup
	pinned := cfg.Expect.onlinePins(cfg.Seed)
	if len(pinned) > 0 && pinned["lower_bound"] != in.lowerBound {
		rep.fail("lower bound %d differs from the pinned %d", in.lowerBound, pinned["lower_bound"])
	}

	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x0411e))
	seen := make(map[string]int64)
	calls := int64(in.tr.Len())
	var untracedNS, tracedNS, untracedCalls, tracedCalls int64
	var gaps, rates []float64
	byOp := make(map[string][]float64)
	var observeNS, engineNS, replayCalls int64
	var replanUS, firstQ, lastQ []float64
	var replans, skips, forced, commits, dropped, iarOps int64
	start := time.Now()
	for round := 0; ; round++ {
		// A traced run alternates untraced and traced rounds; its first
		// round only warms up.
		t.on = cfg.Trace && round%2 == 1
		var roundNS int64
		for _, i := range rng.Perm(len(ops)) {
			o := ops[i]
			op := int32(rep.Attempted)
			rep.Attempted++
			rep.sampleHost()
			out, err := onlineRunOp(o, in, t, op)
			if err := rep.sampleRSS(); err != nil {
				return nil, err
			}
			if err != nil {
				rep.fail("%s: %v", o.Name, err)
				continue
			}
			roundNS += out.runNS
			if t.on {
				tracedNS += out.runNS
				tracedCalls += calls
			} else if !cfg.Trace || round > 0 {
				untracedNS += out.runNS
				untracedCalls += calls
				byOp[o.Name] = append(byOp[o.Name], float64(out.runNS)/1e6)
			}
			ms := out.res.Sim.MakeSpan
			if err := checkOnline(o, in, out.res); err != nil {
				rep.fail("%s: %v", o.Name, err)
				continue
			}
			if want, ok := pinned[o.Name]; ok && want != ms {
				rep.fail("%s: make-span %d differs from the pinned %d", o.Name, ms, want)
				continue
			}
			if first, ok := seen[o.Name]; ok && first != ms {
				rep.fail("%s: make-span %d differs from this run's earlier %d", o.Name, ms, first)
				continue
			}
			seen[o.Name] = ms
			if o.Sched != "iar" {
				continue
			}
			gaps = append(gaps, float64(ms)/float64(in.lowerBound))
			if out.wrap == nil {
				continue
			}
			iarOps++
			forced += int64(out.res.Forced)
			commits += int64(len(out.res.Schedule))
			dropped += int64(out.res.Dropped)
			observeNS += out.wrap.observeNS
			engineNS += out.wallNS - out.wrap.observeNS
			replayCalls += calls
			if o.Window > 0 {
				replans += out.stats.Replans
				skips += out.stats.DirtySkips
				for _, r := range out.wrap.samples {
					replanUS = append(replanUS, r.US)
					switch {
					case r.Call < in.tr.Len()/4:
						firstQ = append(firstQ, r.US)
					case r.Call >= in.tr.Len()*3/4:
						lastQ = append(lastQ, r.US)
					}
				}
			}
		}
		if !t.on {
			rates = append(rates, float64(len(ops))/(float64(roundNS)/1e9))
		}
		if time.Since(start).Seconds() >= cfg.Seconds && (!cfg.Trace || round >= 2) {
			break
		}
	}
	t.on = cfg.Trace
	for _, o := range ops {
		if _, ok := pinned[o.Name]; len(pinned) > 0 && !ok {
			rep.fail("%s: no pinned make-span for a pinned seed", o.Name)
		}
	}

	// Every round replays the same work: the medians over rounds discount a
	// round the machine slowed down.
	rep.E2E["ops_per_s"] = median(rates)
	// The four ops differ in cost by kind, so a quantile over all op times
	// would fall between kinds and move with how many of each a run did:
	// the quantiles are taken over each op's median time.
	var perOp []float64
	for _, ds := range byOp {
		perOp = append(perOp, median(ds))
	}
	rep.E2E["op_ms_p50"] = median(perOp)
	rep.E2E["op_ms_p90"] = quantile(perOp, 0.9)
	rep.E2E["makespan_gap"] = geomean(gaps)
	if cfg.Trace {
		l := t.layers()
		rep.Layer["workload.render_ms"] = l["workload.render"].selfMS()
		rep.Layer["online.observe_ns_per_call"] = ratio(float64(observeNS), float64(replayCalls))
		rep.Layer["online.engine_ns_per_call"] = ratio(float64(engineNS), float64(replayCalls))
		rep.Layer["online.replan_us"] = mean(replanUS)
		rep.Layer["online.replan_us.first_quarter"] = mean(firstQ)
		rep.Layer["online.replan_us.last_quarter"] = mean(lastQ)
		rep.Layer["online.dirty_skip_ratio"] = ratio(float64(skips), float64(replans))
		rep.Layer["online.forced_ratio"] = ratio(float64(forced), float64(commits))
		rep.Layer["online.dropped"] = ratio(float64(dropped), float64(iarOps))
		rep.Layer["trace.overhead_frac"] = (float64(tracedNS)/float64(tracedCalls))/(float64(untracedNS)/float64(untracedCalls)) - 1
	}
	return rep, rep.finish()
}
