// TestIARArenaAllocGuard is the BenchmarkIAR budget wired into
// `make bench-guard`: on the three workloads the benchmark tracks, a warm
// one-shot IAR run on a held planner must stay at or under 50 allocations
// and at or under 650 KB allocated per run — ten times below the ~6.5 MB/op
// the first, unpooled implementation committed to BENCH_core.json.
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dacapo"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/sim"
)

func TestIARArenaAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("loads full workloads")
	}
	const (
		maxAllocsPerRun = 50
		maxBytesPerRun  = 650 << 10
		reps            = 5
	)
	for _, name := range []string{"antlr", "eclipse", "lusearch"} {
		t.Run(name, func(t *testing.T) {
			bench, err := dacapo.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w, err := bench.Load(1)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.IAROptions{Model: w.DefaultModel()}
			pl := new(core.IARPlanner)
			if _, err := pl.IAR(w.Trace, w.Profile, opts); err != nil {
				t.Fatal(err)
			}

			allocs := testing.AllocsPerRun(reps, func() {
				if _, err := pl.IAR(w.Trace, w.Profile, opts); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > maxAllocsPerRun {
				t.Errorf("warm planner IAR: %.0f allocs/run, budget %d", allocs, maxAllocsPerRun)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < reps; i++ {
				if _, err := pl.IAR(w.Trace, w.Profile, opts); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			bytesPerRun := (after.TotalAlloc - before.TotalAlloc) / reps
			if bytesPerRun > maxBytesPerRun {
				t.Errorf("warm planner IAR: %d B/run, budget %d", bytesPerRun, maxBytesPerRun)
			}
			t.Logf("%s: %.0f allocs/run, %d B/run (budgets %d, %d)",
				name, allocs, bytesPerRun, maxAllocsPerRun, maxBytesPerRun)
		})
	}
}

// TestRunPolicyAllocGuard is the policy engine's budget wired into
// `make bench-guard`: warm Jikes and V8 runs on jython (V8 on the two lowest
// levels) allocate only per run — the owned Result and its slices, and the
// policy itself — never per call or per compile request, so they stay under
// a small fixed count. A policy or engine that allocates per request fails
// it: jython's V8 run queues about 1500 recompilations and its Jikes run
// about 90, so a per-request allocation reads about 1540 and 101 allocs/run
// against a measured 4 and 8.
func TestRunPolicyAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a full workload")
	}
	const maxAllocsPerRun = 40
	bench, err := dacapo.ByName("jython")
	if err != nil {
		t.Fatal(err)
	}
	w, err := bench.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := w.Profile.Restrict(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	model := w.DefaultModel()
	for _, tc := range []struct {
		name string
		p    *profile.Profile
		mk   func() (sim.Policy, error)
	}{
		{"jikes", w.Profile, func() (sim.Policy, error) {
			return policy.NewJikes(model, w.Profile.NumFuncs(), bench.SamplePeriod)
		}},
		{"v8", p2, func() (sim.Policy, error) { return policy.NewV8(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() *sim.Result {
				pol, err := tc.mk()
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.RunPolicy(w.Trace, tc.p, pol, sim.DefaultConfig(), sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			res := run() // warm the pooled engine
			allocs := testing.AllocsPerRun(5, func() { run() })
			if allocs > maxAllocsPerRun {
				t.Errorf("warm %s run: %.0f allocs/run, budget %d", tc.name, allocs, maxAllocsPerRun)
			}
			t.Logf("%s: %.0f allocs/run (budget %d), %d compile requests served",
				tc.name, allocs, maxAllocsPerRun, len(res.Compiles))
		})
	}
}
