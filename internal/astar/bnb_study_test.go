package astar_test

import (
	"testing"

	"repro/internal/astar"
	"repro/internal/experiments"
)

// TestBnBNodeBudgetGuard is the search-node-budget guard wired into
// `make bench-guard`: on the eight-function study instance — the size where
// A* exhausts its million-node budget — BnB must prove optimality with room
// to spare under astar.DefaultMaxNodes.
func TestBnBNodeBudgetGuard(t *testing.T) {
	tr, p := experiments.AStarInstance(8, 50, 8)
	res, err := astar.BnBSearch(tr, p, astar.BnBOptions{})
	if err != nil {
		t.Fatalf("BnBSearch: %v", err)
	}
	if !res.Complete {
		t.Fatal("BnB did not prove optimality on the 8-function study instance")
	}
	if res.NodesAllocated >= astar.DefaultMaxNodes {
		t.Fatalf("BnB allocated %d nodes, want < DefaultMaxNodes (%d)",
			res.NodesAllocated, astar.DefaultMaxNodes)
	}
	t.Logf("8 funcs: span=%d nodes=%d (%.1f%% of budget) states=%d hits=%d pruned=%d",
		res.MakeSpan, res.NodesAllocated,
		100*float64(res.NodesAllocated)/float64(astar.DefaultMaxNodes),
		res.StatesStored, res.TableHits, res.BoundPruned)
}

// TestBnBFeasibilityFrontier is the acceptance criterion for the frontier
// push: BnB proves optimality on study instances of 9 unique functions —
// where A* runs out of memory at 7 — within the same DefaultMaxNodes budget.
func TestBnBFeasibilityFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("frontier search takes ~1s")
	}
	tr, p := experiments.AStarInstance(9, 50, 9)
	res, err := astar.BnBSearch(tr, p, astar.BnBOptions{})
	if err != nil {
		t.Fatalf("BnBSearch: %v", err)
	}
	if !res.Complete {
		t.Fatal("BnB did not prove optimality at 9 unique functions")
	}
	if res.NodesAllocated >= astar.DefaultMaxNodes {
		t.Fatalf("BnB allocated %d nodes, want < DefaultMaxNodes", res.NodesAllocated)
	}
	t.Logf("9 funcs: span=%d nodes=%d states=%d hits=%d pruned=%d",
		res.MakeSpan, res.NodesAllocated, res.StatesStored, res.TableHits, res.BoundPruned)
}

// TestBnBMatchesExhaustiveOnStudyInstances: on the small study sizes where
// the exhaustive search is tractable, BnB's certified make-span is
// bit-identical to the ground truth (the ≤6-function acceptance criterion).
func TestBnBMatchesExhaustiveOnStudyInstances(t *testing.T) {
	for nf := 3; nf <= 6; nf++ {
		calls := 50
		if nf >= 5 {
			// The exhaustive ground truth, not BnB, is the limiting factor.
			calls = 30
		}
		tr, p := experiments.AStarInstance(nf, calls, int64(nf))
		want, err := astar.Exhaustive(tr, p, astar.Options{})
		if err != nil {
			t.Fatalf("nf=%d: Exhaustive: %v", nf, err)
		}
		got, err := astar.BnBSearch(tr, p, astar.BnBOptions{})
		if err != nil {
			t.Fatalf("nf=%d: BnBSearch: %v", nf, err)
		}
		if !got.Complete || got.MakeSpan != want.MakeSpan || got.Cost != want.Cost {
			t.Errorf("nf=%d: BnB (complete=%v span=%d cost=%d) != exhaustive (span=%d cost=%d)",
				nf, got.Complete, got.MakeSpan, got.Cost, want.MakeSpan, want.Cost)
		}
	}
}

// BenchmarkBnBStudy8 tracks the frontier search's cost on the 8-function
// study instance (the size the old A* could not finish); it feeds
// BENCH_search.json.
func BenchmarkBnBStudy8(b *testing.B) {
	tr, p := experiments.AStarInstance(8, 50, 8)
	bn, err := astar.NewBnB(tr, p, astar.BnBOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bn.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
