package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/dacapo"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// plannerWorkload is a smaller variant of testWorkload: growing-prefix
// differentials replan O(sqrt) times and run the reference on every prefix,
// so the instance must stay modest.
func plannerWorkload(seed int64) (*trace.Trace, *profile.Profile) {
	tr := testkit.Gen(trace.GenConfig{
		Name: "wl", NumFuncs: 120, Length: 6000, Seed: seed,
		ZipfS: 1.5, Phases: 3, CoreFuncs: 15, CoreShare: 0.45, BurstMean: 3,
	})
	p := testkit.Synth(120, profile.DefaultTiming(4, seed+1))
	return tr, p
}

// growPlanner drives one planner over growing prefixes of the trace and
// asserts that every plan equals legacyIAR on the same prefix. Returns the
// planner for stats assertions.
func growPlanner(t *testing.T, label string, tr *trace.Trace, p *profile.Profile, opts IAROptions, stride int) *IARPlanner {
	t.Helper()
	pl, err := NewIARPlanner(p, opts)
	if err != nil {
		t.Fatalf("%s: NewIARPlanner: %v", label, err)
	}
	cursor := trace.NewPrefix(tr)
	for hi := stride; ; hi += stride {
		if hi > tr.Len() {
			hi = tr.Len()
		}
		if err := cursor.Extend(hi); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got, err := pl.Plan(cursor.Trace())
		if err != nil {
			t.Fatalf("%s: Plan(%d): %v", label, hi, err)
		}
		want, err := legacyIAR(tr.Slice(0, hi), p, opts)
		if err != nil {
			t.Fatalf("%s: legacy(%d): %v", label, hi, err)
		}
		sameSchedule(t, fmt.Sprintf("%s/hi=%d", label, hi), got, want)
		if hi == tr.Len() {
			break
		}
	}
	return pl
}

// TestIARPlannerBitIdenticalGrowth sweeps synthetic workloads and the full
// option matrix over growing prefixes: every incremental plan must equal the
// reference plan on the same prefix, and the fast (no-rebuild) path
// must actually fire once the classification stabilizes.
func TestIARPlannerBitIdenticalGrowth(t *testing.T) {
	var fast, total int64
	for seed := int64(1); seed <= 3; seed++ {
		tr, p := plannerWorkload(seed)
		for _, m := range iarOptionMatrix(p) {
			label := fmt.Sprintf("seed%d/%s", seed, m.name)
			pl := growPlanner(t, label, tr, p, m.opts, 479)
			fast += pl.FastReplans()
			total += pl.Replans()
		}
	}
	if fast == 0 {
		t.Errorf("no plan took the fast path across %d replans — the dirty-set check never stabilizes", total)
	}
	if fast >= total {
		t.Errorf("fast path fired on all %d replans — the first plan must rebuild", total)
	}
}

// TestIARPlannerSmallStride drives the planner call-by-call (stride 1) on a
// short workload — the densest replan pattern the online engine can produce.
func TestIARPlannerSmallStride(t *testing.T) {
	tr := testkit.Gen(trace.GenConfig{
		Name: "s1", NumFuncs: 40, Length: 350, Seed: 11,
		ZipfS: 1.3, Phases: 2, CoreFuncs: 8, CoreShare: 0.5, BurstMean: 2,
	})
	p := testkit.Synth(40, profile.DefaultTiming(4, 12))
	for _, m := range iarOptionMatrix(p) {
		growPlanner(t, "stride1/"+m.name, tr, p, m.opts, 1)
	}
}

// TestIARPlannerBitIdenticalCorpus is the growth differential over real
// DaCapo workloads, where fill-slack accept/reject flips and gap filling
// occur at realistic rates.
func TestIARPlannerBitIdenticalCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential is not short")
	}
	for _, name := range []string{"antlr", "jython"} {
		bench, err := dacapo.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := bench.Load(0.02)
		if err != nil {
			t.Fatal(err)
		}
		growPlanner(t, name+"/oracle", w.Trace, w.Profile, IAROptions{}, 257)
		growPlanner(t, name+"/model", w.Trace, w.Profile, IAROptions{Model: w.DefaultModel()}, 257)
	}
}

// TestIARPlannerErrors pins construction validation (same strings as the
// reference's per-run validation), the growth contract, and call validation.
func TestIARPlannerErrors(t *testing.T) {
	tr, p := plannerWorkload(5)
	if _, err := NewIARPlanner(p, IAROptions{K: -1}); err == nil ||
		err.Error() != "core: IAR K must be positive, got -1" {
		t.Errorf("negative K: %v", err)
	}
	if _, err := NewIARPlanner(p, IAROptions{LowLevel: profile.Level(p.Levels)}); err == nil {
		t.Errorf("out-of-range LowLevel accepted")
	}
	pl, err := NewIARPlanner(p, IAROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(tr.Slice(0, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(tr.Slice(0, 50)); err == nil {
		t.Error("shrinking prefix accepted")
	}
	bad := trace.New("bad", []trace.FuncID{0, trace.FuncID(p.NumFuncs())})
	pl2, err := NewIARPlanner(p, IAROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl2.Plan(bad); err == nil {
		t.Error("out-of-range function id accepted")
	}
	// An empty visible prefix plans an empty schedule.
	pl3, err := NewIARPlanner(p, IAROptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pl3.Plan(trace.New("empty", nil))
	if err != nil || len(plan) != 0 {
		t.Errorf("empty prefix: plan=%v err=%v", plan, err)
	}
}

// lateFuncWorkload is an instance whose init pass stops early and must
// resume: functions 0 and 1 compile fast and run thousands of calls far past
// the init schedule's compile end, and then function 2, whose low-level
// compile is huge, first appears and moves the compile end past all of
// them. late is the index of function 2's first call, which waits for its
// version and so starts exactly at the compile end: it must not count
// toward n1, and counting it would turn function 2 from Append to Replace.
func lateFuncWorkload() (tr *trace.Trace, p *profile.Profile, late int) {
	p = &profile.Profile{
		Levels: 2,
		Funcs: []profile.FuncTimes{
			{Compile: []int64{10, 50}, Exec: []int64{5, 1}},
			{Compile: []int64{10, 50}, Exec: []int64{5, 1}},
			{Compile: []int64{100000, 100010}, Exec: []int64{5, 1}},
		},
	}
	var calls []trace.FuncID
	for i := 0; i < 4000; i++ {
		calls = append(calls, trace.FuncID(i%2))
	}
	late = len(calls)
	for i := 0; i < 3000; i++ {
		calls = append(calls, trace.FuncID(i%3))
	}
	return trace.New("late", calls), p, late
}

// lateAtCompileEndWorkload is an instance whose step-4 gap fill hinges on a
// call starting exactly at the compile end, which counts as late. Function
// 1 compiles first and runs ten calls; function 0's version finishes last,
// at the compile end (20), so its one call waits until then. The model
// rates level 1 cost-effective for function 0, but its true times do not
// (Formula 1: Other), so step 4 appends its level-1 compile only if that
// call counts as late.
func lateAtCompileEndWorkload() (*trace.Trace, *profile.Profile, profile.CostModel) {
	p := &profile.Profile{
		Levels: 2,
		Funcs: []profile.FuncTimes{
			{Compile: []int64{15, 20}, Exec: []int64{10, 9}},
			{Compile: []int64{5, 100}, Exec: []int64{1, 1}},
		},
	}
	est := &profile.Profile{Levels: 2, Funcs: slices.Clone(p.Funcs)}
	est.Funcs[0].Exec = []int64{10, 1}
	var calls []trace.FuncID
	for i := 0; i < 10; i++ {
		calls = append(calls, 1)
	}
	calls = append(calls, 0)
	for i := 0; i < 50; i++ {
		calls = append(calls, 1)
	}
	return trace.New("lateAtEnd", calls), p, profile.NewOracle(est)
}

// TestIARPlannerPoolHygiene: a planner reused across instances — held, or
// recycled through core.IAR's pool — carries nothing from one run into the
// next. Every plan equals legacyIAR, error strings included, across a
// large-nf then a small-nf profile, an error run then a clean run, a
// function that first appears after the init pass stopped at the compile
// end, and concurrent callers of the pooled wrapper.
func TestIARPlannerPoolHygiene(t *testing.T) {
	bigTr, bigP := testWorkload(31)
	smallTr, smallP := plannerWorkload(32)
	lateTr, lateP, late := lateFuncWorkload()
	badTr := trace.New("bad", []trace.FuncID{0, trace.FuncID(smallP.NumFuncs())})
	pl := new(IARPlanner)
	check := func(label string, tr *trace.Trace, p *profile.Profile, opts IAROptions) {
		t.Helper()
		want, werr := legacyIAR(tr, p, opts)
		for _, run := range []struct {
			name string
			f    func() (Schedule, error)
		}{
			{"pooled", func() (Schedule, error) { return IAR(tr, p, opts) }},
			{"held", func() (Schedule, error) { return pl.IAR(tr, p, opts) }},
		} {
			got, err := run.f()
			if werr != nil || err != nil {
				if werr == nil || err == nil || err.Error() != werr.Error() || got != nil {
					t.Fatalf("%s/%s: got %v, %v; legacy error %v", label, run.name, got, err, werr)
				}
				continue
			}
			sameSchedule(t, label+"/"+run.name, got, want)
		}
	}
	check("bigNF", bigTr, bigP, IAROptions{})
	check("smallNF", smallTr, smallP, IAROptions{K: 3})
	check("badOptions", bigTr, bigP, IAROptions{K: -1})
	check("cleanAfterBadOptions", bigTr, bigP, IAROptions{})
	check("badTrace", badTr, smallP, IAROptions{})
	check("cleanAfterBadTrace", smallTr, smallP, IAROptions{})
	check("lateFunc", lateTr, lateP, IAROptions{})
	endTr, endP, endModel := lateAtCompileEndWorkload()
	check("lateAtCompileEnd", endTr, endP, IAROptions{Model: endModel})
	if s, err := IAR(endTr, endP, IAROptions{Model: endModel}); err != nil ||
		len(s) != 3 || s[2] != (sim.CompileEvent{Func: 0, Level: 1}) {
		t.Fatalf("lateAtCompileEnd: plan %v, %v; want step 4 to append function 0 at level 1", s, err)
	}

	// Growing: plan the prefix before function 2 appears, then the whole
	// trace, on the held planner reset from the runs above.
	if err := pl.Reset(lateP, IAROptions{}); err != nil {
		t.Fatal(err)
	}
	for _, hi := range []int{late, lateTr.Len()} {
		got, err := pl.Plan(lateTr.Slice(0, hi))
		if err != nil {
			t.Fatal(err)
		}
		want, err := legacyIAR(lateTr.Slice(0, hi), lateP, IAROptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameSchedule(t, fmt.Sprintf("lateFunc/grow/hi=%d", hi), got, want)
		if hi == late && pl.initSim.NumCalls() >= late/2 {
			t.Fatalf("init pass ran %d of %d calls; it should stop at the compile end", pl.initSim.NumCalls(), late)
		}
	}
	if pl.initSim.NumCalls() < late {
		t.Fatalf("init pass did not resume past call %d after the compile end moved (ran %d)", late, pl.initSim.NumCalls())
	}

	// Concurrent callers of the pooled wrapper, each cycling through
	// instances of different sizes (run under -race for the data-race proof).
	type instance struct {
		tr   *trace.Trace
		p    *profile.Profile
		want Schedule
	}
	var insts []instance
	for _, in := range []struct {
		tr *trace.Trace
		p  *profile.Profile
	}{{bigTr, bigP}, {smallTr, smallP}, {lateTr, lateP}} {
		want, err := legacyIAR(in.tr, in.p, IAROptions{})
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{in.tr, in.p, want})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				in := insts[(g+i)%len(insts)]
				got, err := IAR(in.tr, in.p, IAROptions{})
				if err != nil {
					errs <- err
					return
				}
				if !slices.Equal(got, in.want) {
					errs <- fmt.Errorf("goroutine %d run %d: pooled schedule differs from legacyIAR", g, i)
					return
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
