package astar_test

import (
	"reflect"
	"testing"

	"repro/internal/astar"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// searchCorpus decodes the trace fuzz seed corpus (both codecs, same files
// the sim differential tests use) and derives from each decodable trace a
// search-sized instance: calls are filtered to the first few function IDs
// and truncated, so the exhaustive ground truth stays tractable while the
// call patterns keep their fuzzed shapes.
func searchCorpus(t testing.TB) []*trace.Trace {
	t.Helper()
	const (
		maxFuncs = 5
		maxCalls = 25
	)
	var out []*trace.Trace
	for _, tr := range testkit.FuzzCorpusTraces(t) {
		var calls []trace.FuncID
		for _, f := range tr.Calls {
			if int(f) < maxFuncs {
				calls = append(calls, f)
			}
			if len(calls) == maxCalls {
				break
			}
		}
		if len(calls) == 0 {
			continue
		}
		out = append(out, trace.New(tr.Name, calls))
	}
	if len(out) == 0 {
		t.Fatal("fuzz corpus produced no usable search instances")
	}
	return out
}

// TestSearchDeterminismOnCorpus pins the tie-breaking contract of the three
// exact searches over the fuzz corpus traces:
//
//   - every algorithm is individually deterministic: repeated runs — and,
//     for BnB, any worker count in {1, 2, 8} — return the identical Result,
//     schedule included, compared field-by-field;
//   - across algorithms the certified optimum is the same make-span and
//     cost, and every returned schedule replays to its claimed make-span.
//
// Schedules are NOT required to be identical across algorithms: optimal
// ties are broken by visit order, which legitimately differs between A*'s
// best-first pops, the exhaustive DFS, and BnB's batched best-first (A* and
// Exhaustive already disagree on tied optima today). What each caller can
// rely on is that the same algorithm, on the same instance, always hands
// back the same schedule.
func TestSearchDeterminismOnCorpus(t *testing.T) {
	for _, tr := range searchCorpus(t) {
		p, err := profile.Synthesize(tr.NumFuncs(), profile.DefaultTiming(2, 11))
		if err != nil {
			t.Fatalf("%s: synthesize: %v", tr.Name, err)
		}

		a, err := astar.Search(tr, p, astar.Options{})
		if err != nil {
			t.Fatalf("%s: Search: %v", tr.Name, err)
		}
		e, err := astar.Exhaustive(tr, p, astar.Options{})
		if err != nil {
			t.Fatalf("%s: Exhaustive: %v", tr.Name, err)
		}
		b, err := astar.BnBSearch(tr, p, astar.BnBOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: BnBSearch: %v", tr.Name, err)
		}
		if a.MakeSpan != e.MakeSpan || a.MakeSpan != b.MakeSpan ||
			a.Cost != e.Cost || a.Cost != b.Cost {
			t.Errorf("%s: optima disagree: A* (%d,%d) exhaustive (%d,%d) BnB (%d,%d)",
				tr.Name, a.MakeSpan, a.Cost, e.MakeSpan, e.Cost, b.MakeSpan, b.Cost)
		}
		for algo, r := range map[string]*astar.Result{"A*": a, "exhaustive": e, "bnb": b} {
			simRes, err := sim.Run(tr, p, r.Schedule, sim.DefaultConfig(), sim.Options{})
			if err != nil {
				t.Fatalf("%s: %s replay: %v", tr.Name, algo, err)
			}
			if simRes.MakeSpan != r.MakeSpan {
				t.Errorf("%s: %s claims make-span %d, replay gives %d",
					tr.Name, algo, r.MakeSpan, simRes.MakeSpan)
			}
		}

		// Repeated runs are bit-identical per algorithm.
		if a2, _ := astar.Search(tr, p, astar.Options{}); !reflect.DeepEqual(a, a2) {
			t.Errorf("%s: repeated Search differs:\n %+v\n %+v", tr.Name, a, a2)
		}
		if e2, _ := astar.Exhaustive(tr, p, astar.Options{}); !reflect.DeepEqual(e, e2) {
			t.Errorf("%s: repeated Exhaustive differs:\n %+v\n %+v", tr.Name, e, e2)
		}
		// BnB: any worker count, repeated runs of a reused searcher.
		for _, workers := range []int{1, 2, 8} {
			bn, err := astar.NewBnB(tr, p, astar.BnBOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 2; rep++ {
				got, err := bn.Run()
				if err != nil {
					t.Fatalf("%s: BnB workers=%d rep=%d: %v", tr.Name, workers, rep, err)
				}
				if !reflect.DeepEqual(got, b) {
					t.Errorf("%s: BnB workers=%d rep=%d differs from serial:\n %+v\n %+v",
						tr.Name, workers, rep, got, b)
				}
			}
		}
	}
}
