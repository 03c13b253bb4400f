package dacapo

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/profile"
)

// TestLoadPrefixMatchesLoad: for every benchmark and input run, a prefix
// load is the full load cut to the prefix — bit-identical calls, the same
// shared profile — including cuts at, just short of, and past the end.
func TestLoadPrefixMatchesLoad(t *testing.T) {
	const scale = 0.1
	for _, b := range Suite() {
		for run := 0; run < 3; run++ {
			full, err := b.LoadRun(scale, run)
			if err != nil {
				t.Fatal(err)
			}
			l := full.Trace.Len()
			for _, n := range []int{1, 7, 2000, l - 1, l, l + 5} {
				w, err := b.run(run).LoadPrefix(scale, n)
				if err != nil {
					t.Fatalf("%s run %d, n=%d: %v", b.Name, run, n, err)
				}
				want := full.Trace.Calls[:min(n, l)]
				if !reflect.DeepEqual(w.Trace.Calls, want) {
					t.Errorf("%s run %d, n=%d: prefix differs from the full load's", b.Name, run, n)
				}
				if w.Trace.Name != full.Trace.Name {
					t.Errorf("%s run %d, n=%d: trace name %q, want %q", b.Name, run, n, w.Trace.Name, full.Trace.Name)
				}
				if w.Profile != full.Profile {
					t.Errorf("%s run %d, n=%d: prefix load did not reuse the shared profile", b.Name, run, n)
				}
			}
		}
	}
	b, err := ByName("antlr")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.LoadPrefix(0, 10); err == nil {
		t.Error("want error for zero scale")
	}
}

// TestSharedProfileAndModelMatchFresh: the shared profile and default model
// are exactly what synthesizing afresh yields, every load hands out the same
// ones, and a workload carrying any other profile gets a model of its own.
func TestSharedProfileAndModelMatchFresh(t *testing.T) {
	for _, b := range Suite() {
		w, err := b.Load(0.01)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := profile.Synthesize(b.Funcs, b.timing)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(w.Profile, fresh) {
			t.Errorf("%s: shared profile differs from a fresh Synthesize", b.Name)
		}
		cfg := profile.DefaultEstimatedConfig(b.seed + 2)
		if !reflect.DeepEqual(w.DefaultModel(), profile.NewEstimated(fresh, cfg)) {
			t.Errorf("%s: shared model differs from a fresh NewEstimated", b.Name)
		}
		_, threadProfile, err := b.LoadThreads(0.01, 2)
		if err != nil {
			t.Fatal(err)
		}
		again, err := b.LoadRun(0.02, 1)
		if err != nil {
			t.Fatal(err)
		}
		if again.Profile != w.Profile || threadProfile != w.Profile {
			t.Errorf("%s: loads returned different profiles", b.Name)
		}
		if again.DefaultModel() != w.DefaultModel() {
			t.Errorf("%s: loads returned different default models", b.Name)
		}
		own := &Workload{Bench: b, Trace: w.Trace, Profile: fresh}
		if m := own.DefaultModel(); m == w.DefaultModel() || !reflect.DeepEqual(m, w.DefaultModel()) {
			t.Errorf("%s: a private profile must get an equal model of its own", b.Name)
		}
	}
}

// TestSharedTwoLevelProfile: the shared two-level profile is exactly a fresh
// Restrict(0, 1), every load of a benchmark hands out the same one, and a
// workload carrying any other profile gets a restriction of its own.
func TestSharedTwoLevelProfile(t *testing.T) {
	for _, b := range Suite() {
		w, err := b.LoadPrefix(1, 10)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := w.TwoLevelProfile()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := w.Profile.Restrict(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p2, fresh) {
			t.Errorf("%s: shared two-level profile differs from a fresh Restrict(0, 1)", b.Name)
		}
		again, err := b.LoadRun(0.02, 1)
		if err != nil {
			t.Fatal(err)
		}
		if q, err := again.TwoLevelProfile(); err != nil || q != p2 {
			t.Errorf("%s: loads returned different two-level profiles (%v)", b.Name, err)
		}
		own := &Workload{Bench: b, Trace: w.Trace, Profile: w.Profile.Clone()}
		if q, err := own.TwoLevelProfile(); err != nil || q == p2 || !reflect.DeepEqual(q, p2) {
			t.Errorf("%s: a private profile must get an equal restriction of its own (%v)", b.Name, err)
		}
	}
}

// TestConcurrentFirstLoad races the first loads of one benchmark (fresh
// shared state) and their default models; run under -race, every caller
// must see the one profile and the one model.
func TestConcurrentFirstLoad(t *testing.T) {
	b, err := ByName("hsqldb")
	if err != nil {
		t.Fatal(err)
	}
	b.shared = &shared{}
	const callers = 8
	ws := make([]*Workload, callers)
	models := make([]*profile.Estimated, callers)
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := b.LoadPrefix(0.01, 100*(i+1))
			if err != nil {
				t.Error(err)
				return
			}
			ws[i], models[i] = w, w.DefaultModel()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < callers; i++ {
		if ws[i].Profile != ws[0].Profile || models[i] != models[0] {
			t.Fatalf("caller %d got a different profile or model", i)
		}
	}
}

// TestLoadPrefixAllocGuard is wired into `make bench-guard`: with the
// shared profile built, a 2000-call prefix of the scale-1 antlr trace (240k
// calls, ~940 KB generated in full) must allocate at most 64 KiB, so a
// return to generate-then-truncate fails.
func TestLoadPrefixAllocGuard(t *testing.T) {
	const (
		maxBytes = 64 << 10
		reps     = 5
	)
	b, err := ByName("antlr")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.LoadPrefix(1, 2000); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if _, err := b.LoadPrefix(1, 2000); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perLoad := (after.TotalAlloc - before.TotalAlloc) / reps
	if perLoad > maxBytes {
		t.Errorf("warm LoadPrefix(1, 2000): %d B/load, budget %d", perLoad, maxBytes)
	}
	t.Logf("warm LoadPrefix(1, 2000): %d B/load (budget %d)", perLoad, maxBytes)
}
