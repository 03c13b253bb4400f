package core

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/dacapo"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// legacyIAR is the straightforward implementation of IAR, kept verbatim as
// the reference for the differential tests below: the planner — one-shot
// through core.IAR and (*IARPlanner).IAR, and growing through Plan — must
// reproduce its schedule, simulated result, and error strings bit for bit
// on every corpus instance and option combination. Do not "improve" this
// copy — its value is being frozen.
func legacyIAR(tr *trace.Trace, p *profile.Profile, opts IAROptions) (Schedule, error) {
	if opts.K == 0 {
		opts.K = 5
	}
	if opts.K < 0 {
		return nil, fmt.Errorf("core: IAR K must be positive, got %d", opts.K)
	}
	if opts.LowLevel < 0 || int(opts.LowLevel) >= p.Levels {
		return nil, fmt.Errorf("core: IAR LowLevel %d outside [0,%d)", opts.LowLevel, p.Levels)
	}
	model := opts.Model
	if model == nil {
		model = profile.NewOracle(p)
	}
	if err := tr.Validate(p.NumFuncs()); err != nil {
		return nil, err
	}

	order := tr.FirstCallOrder()
	if len(order) == 0 {
		return Schedule{}, nil
	}
	counts := tr.Counts()

	funcs := make([]*iarFunc, len(order))
	for i, f := range order {
		high := profile.CostEffectiveLevel(model, f, counts[f])
		if high < opts.LowLevel {
			high = opts.LowLevel
		}
		ff := &iarFunc{
			f: f, pos: i, n: counts[f],
			low:      opts.LowLevel,
			high:     high,
			appended: -1,
		}
		ff.cl = p.CompileTime(f, ff.low)
		ff.el = p.ExecTime(f, ff.low)
		ff.ch = p.CompileTime(f, ff.high)
		ff.eh = p.ExecTime(f, ff.high)
		funcs[i] = ff
	}

	eval, err := sim.NewEvaluator(tr, p)
	if err != nil {
		return nil, err
	}

	n1, err := legacyIARInitN1(eval, tr, p.NumFuncs(), order, opts.LowLevel)
	if err != nil {
		return nil, err
	}

	var appendSet []*iarFunc
	for _, ff := range funcs {
		switch {
		case ff.high == ff.low || ff.ch+ff.n*ff.eh > ff.cl+ff.n*ff.el: // Formula 1
			ff.class = 'O'
		case ff.ch-ff.cl > opts.K*n1[ff.f]*(ff.el-ff.eh): // Formula 2
			ff.class = 'A'
			appendSet = append(appendSet, ff)
		default:
			ff.class = 'R'
		}
	}
	sort.SliceStable(appendSet, func(i, j int) bool { return appendSet[i].ch < appendSet[j].ch })

	sched := make(Schedule, 0, len(order)+len(appendSet))
	for _, ff := range funcs {
		level := ff.low
		if ff.class == 'R' {
			level = ff.high
		}
		sched = append(sched, sim.CompileEvent{Func: ff.f, Level: level})
	}
	for _, ff := range appendSet {
		ff.appended = len(sched)
		sched = append(sched, sim.CompileEvent{Func: ff.f, Level: ff.high})
	}

	if !opts.DisableFillSlack {
		res, err := eval.Run(sched, sim.DefaultConfig(), sim.Options{RecordCalls: true})
		if err != nil {
			return nil, err
		}
		baseSpan := res.MakeSpan
		firstCalls := tr.FirstCalls()
		slack := make([]int64, len(funcs))
		for i, ff := range funcs {
			slack[i] = res.CallStarts[firstCalls[ff.f]] - res.Compiles[i].Done
		}
		suffMin := make([]int64, len(funcs)+1)
		suffMin[len(funcs)] = int64(1) << 62
		for i := len(funcs) - 1; i >= 0; i-- {
			suffMin[i] = slack[i]
			if suffMin[i+1] < suffMin[i] {
				suffMin[i] = suffMin[i+1]
			}
		}
		var inflate int64
		removed := make(map[int]bool)
		candidate := sched.Clone()
		var changed []*iarFunc
		for i, ff := range funcs {
			if ff.class != 'A' {
				continue
			}
			delta := ff.ch - ff.cl
			if inflate+delta <= suffMin[i] {
				candidate[i].Level = ff.high
				removed[ff.appended] = true
				changed = append(changed, ff)
				inflate += delta
			}
		}
		if len(removed) > 0 {
			compact := candidate[:0:len(candidate)]
			for i, ev := range candidate {
				if !removed[i] {
					compact = append(compact, ev)
				}
			}
			candidate = compact
			after, err := eval.Run(candidate, sim.DefaultConfig(), sim.Options{})
			if err != nil {
				return nil, err
			}
			if after.MakeSpan <= baseSpan {
				sched = candidate
				for _, ff := range changed {
					ff.appended = -1
					ff.class = 'R'
				}
			}
		}
	}

	if !opts.DisableFillGap {
		res, err := eval.Run(sched, sim.DefaultConfig(), sim.Options{RecordCalls: true})
		if err != nil {
			return nil, err
		}
		tgap := res.MakeSpan - res.CompileEnd
		if tgap > 0 {
			maxLevel := make([]profile.Level, p.NumFuncs())
			for i := range maxLevel {
				maxLevel[i] = -1
			}
			for _, ev := range sched {
				if ev.Level > maxLevel[ev.Func] {
					maxLevel[ev.Func] = ev.Level
				}
			}
			lateCalls := make([]int64, p.NumFuncs())
			for i, f := range tr.Calls {
				if res.CallStarts[i] >= res.CompileEnd {
					lateCalls[f]++
				}
			}
			var candidates []*iarFunc
			for _, ff := range funcs {
				if maxLevel[ff.f] < ff.high && lateCalls[ff.f] > 0 {
					candidates = append(candidates, ff)
				}
			}
			sort.SliceStable(candidates, func(i, j int) bool {
				return lateCalls[candidates[i].f] > lateCalls[candidates[j].f]
			})
			var used int64
			for _, ff := range candidates {
				if used+ff.ch <= tgap {
					sched = append(sched, sim.CompileEvent{Func: ff.f, Level: ff.high})
					used += ff.ch
				}
			}
		}
	}

	return sched, nil
}

// legacyIARInitN1 is the reference init/n1 pass, verbatim.
func legacyIARInitN1(eval *sim.Evaluator, tr *trace.Trace, nf int, order []trace.FuncID, low profile.Level) ([]int64, error) {
	initSched := make(Schedule, len(order))
	for i, f := range order {
		initSched[i] = sim.CompileEvent{Func: f, Level: low}
	}
	res, err := eval.Run(initSched, sim.DefaultConfig(), sim.Options{RecordCalls: true})
	if err != nil {
		return nil, err
	}
	n1 := make([]int64, nf)
	for i, f := range tr.Calls {
		if res.CallStarts[i] < res.CompileEnd {
			n1[f]++
		}
	}
	return n1, nil
}

// iarOptionMatrix is the option grid the differential tests sweep: defaults,
// each ablation knob, a non-default low level, and the K extremes.
func iarOptionMatrix(p *profile.Profile) []struct {
	name string
	opts IAROptions
} {
	matrix := []struct {
		name string
		opts IAROptions
	}{
		{"default", IAROptions{}},
		{"noFillSlack", IAROptions{DisableFillSlack: true}},
		{"noFillGap", IAROptions{DisableFillGap: true}},
		{"noFill", IAROptions{DisableFillSlack: true, DisableFillGap: true}},
		{"k1", IAROptions{K: 1}},
		{"k20", IAROptions{K: 20}},
	}
	if p.Levels > 1 {
		matrix = append(matrix, struct {
			name string
			opts IAROptions
		}{"low1", IAROptions{LowLevel: 1}})
	}
	return matrix
}

func sameSchedule(t *testing.T, label string, got, want Schedule) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: schedule length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestIARArenaBitIdenticalSynthetic sweeps synthetic workloads and the full
// option matrix: for each instance the pooled wrapper and a shared warm
// planner (reset across instances) must reproduce the legacy schedule
// exactly, and the schedules must simulate to the same result.
func TestIARArenaBitIdenticalSynthetic(t *testing.T) {
	pl := new(IARPlanner)
	for seed := int64(1); seed <= 4; seed++ {
		tr, p := testWorkload(seed)
		for _, m := range iarOptionMatrix(p) {
			label := fmt.Sprintf("seed%d/%s", seed, m.name)
			want, err := legacyIAR(tr, p, m.opts)
			if err != nil {
				t.Fatalf("%s: legacy: %v", label, err)
			}
			got, err := IAR(tr, p, m.opts)
			if err != nil {
				t.Fatalf("%s: wrapper: %v", label, err)
			}
			sameSchedule(t, label+"/wrapper", got, want)
			pgot, err := pl.IAR(tr, p, m.opts)
			if err != nil {
				t.Fatalf("%s: planner: %v", label, err)
			}
			sameSchedule(t, label+"/planner", pgot, want)

			wres, err := sim.Run(tr, p, want, sim.DefaultConfig(), sim.Options{})
			if err != nil {
				t.Fatalf("%s: sim legacy: %v", label, err)
			}
			gres, err := sim.Run(tr, p, got, sim.DefaultConfig(), sim.Options{})
			if err != nil {
				t.Fatalf("%s: sim wrapper: %v", label, err)
			}
			if wres.MakeSpan != gres.MakeSpan || wres.TotalBubble != gres.TotalBubble || wres.CompileEnd != gres.CompileEnd {
				t.Fatalf("%s: sim results differ: legacy span=%d bubble=%d cend=%d, wrapper span=%d bubble=%d cend=%d",
					label, wres.MakeSpan, wres.TotalBubble, wres.CompileEnd,
					gres.MakeSpan, gres.TotalBubble, gres.CompileEnd)
			}
		}
	}
}

// TestIARArenaBitIdenticalCorpus is the same differential over real DaCapo
// workloads, where step 3's transactional accept/reject and step 4's gap
// filling actually trigger.
func TestIARArenaBitIdenticalCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential is not short")
	}
	pl := new(IARPlanner)
	for _, name := range []string{"antlr", "eclipse", "lusearch", "jython"} {
		bench, err := dacapo.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := bench.Load(1)
		if err != nil {
			t.Fatal(err)
		}
		models := map[string]profile.CostModel{"oracle": nil, "default": w.DefaultModel()}
		for mname, model := range models {
			opts := IAROptions{Model: model}
			label := name + "/" + mname
			want, err := legacyIAR(w.Trace, w.Profile, opts)
			if err != nil {
				t.Fatalf("%s: legacy: %v", label, err)
			}
			got, err := IAR(w.Trace, w.Profile, opts)
			if err != nil {
				t.Fatalf("%s: wrapper: %v", label, err)
			}
			sameSchedule(t, label+"/wrapper", got, want)
			pgot, err := pl.IAR(w.Trace, w.Profile, opts)
			if err != nil {
				t.Fatalf("%s: planner: %v", label, err)
			}
			sameSchedule(t, label+"/planner", pgot, want)
		}
	}
}

// TestIARArenaErrorStrings pins error bit-identity: bad options, bad traces,
// and the empty trace must come back from the planner exactly as from the
// legacy implementation — same string, same (non-)nil schedule.
func TestIARArenaErrorStrings(t *testing.T) {
	tr, p := testWorkload(7)
	badTrace := trace.New("bad", []trace.FuncID{0, 401, 1})
	cases := []struct {
		name string
		tr   *trace.Trace
		opts IAROptions
	}{
		{"negativeK", tr, IAROptions{K: -1}},
		{"lowLevelHigh", tr, IAROptions{LowLevel: profile.Level(p.Levels)}},
		{"lowLevelNegative", tr, IAROptions{LowLevel: -1}},
		{"invalidTrace", badTrace, IAROptions{}},
	}
	pl := new(IARPlanner)
	for _, c := range cases {
		_, werr := legacyIAR(c.tr, p, c.opts)
		if werr == nil {
			t.Fatalf("%s: legacy IAR unexpectedly succeeded", c.name)
		}
		_, gerr := IAR(c.tr, p, c.opts)
		if gerr == nil || gerr.Error() != werr.Error() {
			t.Errorf("%s: wrapper error = %v, want %v", c.name, gerr, werr)
		}
		s, perr := pl.IAR(c.tr, p, c.opts)
		if perr == nil || perr.Error() != werr.Error() || s != nil {
			t.Errorf("%s: planner = %v, %v; want nil, %v", c.name, s, perr, werr)
		}
	}

	// The planner must stay usable after an error run.
	want, err := legacyIAR(tr, p, IAROptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.IAR(tr, p, IAROptions{})
	if err != nil {
		t.Fatalf("planner after errors: %v", err)
	}
	sameSchedule(t, "afterErrors", got, want)

	// Empty trace: a non-nil empty schedule from every entry point, exactly
	// like the legacy code.
	empty := trace.New("empty", nil)
	for name, f := range map[string]func() (Schedule, error){
		"legacy":  func() (Schedule, error) { return legacyIAR(empty, p, IAROptions{}) },
		"wrapper": func() (Schedule, error) { return IAR(empty, p, IAROptions{}) },
		"planner": func() (Schedule, error) { return pl.IAR(empty, p, IAROptions{}) },
	} {
		s, err := f()
		if err != nil {
			t.Fatalf("%s(empty): %v", name, err)
		}
		if s == nil || len(s) != 0 {
			t.Errorf("%s(empty) = %#v, want non-nil empty schedule", name, s)
		}
	}
}

// TestIARWrapperResultIsOwned: the pooled wrapper's result must not alias the
// planner that produced it — corrupting it must not change later runs.
func TestIARWrapperResultIsOwned(t *testing.T) {
	tr, p := testWorkload(11)
	first, err := IAR(tr, p, IAROptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := first.Clone()
	for i := range first {
		first[i] = sim.CompileEvent{Func: 0, Level: 0}
	}
	second, err := IAR(tr, p, IAROptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, "afterCorruption", second, want)
}

// TestIARArenaWarmAllocGuard enforces the warm-run budget: a one-shot IAR
// run on a held, already-sized planner over a real workload stays at or
// under 50 allocations. (The cold run that sizes the buffers is excluded, as
// is workload loading.)
func TestIARArenaWarmAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard loads a real workload")
	}
	bench, err := dacapo.ByName("antlr")
	if err != nil {
		t.Fatal(err)
	}
	w, err := bench.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	model := w.DefaultModel()
	pl := new(IARPlanner)
	if _, err := pl.IAR(w.Trace, w.Profile, IAROptions{Model: model}); err != nil {
		t.Fatal(err)
	}
	before := ReadIARStats()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := pl.IAR(w.Trace, w.Profile, IAROptions{Model: model}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 50 {
		t.Errorf("warm planner IAR allocates %.0f objects/run, budget is 50", allocs)
	}
	after := ReadIARStats()
	if after.WarmRuns <= before.WarmRuns {
		t.Errorf("warm-run counter did not advance: before=%+v after=%+v", before, after)
	}
}

// TestIARArenaConcurrent hammers per-goroutine planners (and the pooled
// wrapper) on shared instances; run with -race this doubles as the data-race
// proof for the shared trace/profile/counter state.
func TestIARArenaConcurrent(t *testing.T) {
	tr1, p1 := testWorkload(21)
	tr2, p2 := testWorkload(22)
	want1, err := legacyIAR(tr1, p1, IAROptions{})
	if err != nil {
		t.Fatal(err)
	}
	want2, err := legacyIAR(tr2, p2, IAROptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pl := new(IARPlanner)
			for i := 0; i < 5; i++ {
				s1, err := pl.IAR(tr1, p1, IAROptions{})
				if err != nil {
					errs <- err
					return
				}
				for j := range want1 {
					if s1[j] != want1[j] {
						errs <- fmt.Errorf("goroutine %d run %d: planner schedule diverged at %d", g, i, j)
						return
					}
				}
				s2, err := IAR(tr2, p2, IAROptions{K: 3})
				if err != nil {
					errs <- err
					return
				}
				for j := range want2 {
					if s2[j] != want2[j] {
						errs <- fmt.Errorf("goroutine %d run %d: pooled schedule diverged at %d", g, i, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
