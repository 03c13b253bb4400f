package exact_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/astar"
	"repro/internal/core"
	"repro/internal/dacapo"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/online"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// instance builds a §6.2.5-style random two-level OCSP instance.
func instance(nf, calls int, seed int64) (*trace.Trace, *profile.Profile) {
	return experiments.AStarInstance(nf, calls, seed)
}

// TestExactMatchesBnB is the core oracle-agreement suite: on every instance
// where both terminate, exact.Solve and BnBSearch must report the identical
// optimum — across a worker × bound option matrix, and against the exhaustive
// DFS ground truth where it is feasible.
func TestExactMatchesBnB(t *testing.T) {
	sizes := []struct{ nf, calls int }{
		{3, 30}, {4, 30}, {5, 50}, {6, 50}, {7, 50}, {8, 50}, {9, 50},
	}
	if testing.Short() {
		sizes = sizes[:4]
	}
	bnbOpts := []astar.BnBOptions{
		{Workers: 1, MaxNodes: 1 << 22},
		{Workers: 1, MaxNodes: 1 << 22, TightBound: true},
		{Workers: 4, MaxNodes: 1 << 22},
	}
	for _, sz := range sizes {
		tr, p := instance(sz.nf, sz.calls, 42+int64(sz.nf))
		res, err := exact.Solve(tr, p, exact.Options{})
		if err != nil {
			t.Fatalf("nf=%d: exact.Solve: %v", sz.nf, err)
		}
		if !res.Complete {
			t.Fatalf("nf=%d: exact solve returned without proving optimality", sz.nf)
		}
		// The schedule must actually achieve the reported make-span.
		simRes, err := sim.Run(tr, p, res.Schedule, sim.Config{CompileWorkers: 1}, sim.Options{})
		if err != nil {
			t.Fatalf("nf=%d: replaying exact schedule: %v", sz.nf, err)
		}
		if simRes.MakeSpan != res.MakeSpan {
			t.Fatalf("nf=%d: exact reports make-span %d but its schedule simulates to %d",
				sz.nf, res.MakeSpan, simRes.MakeSpan)
		}
		for _, bo := range bnbOpts {
			bres, err := astar.BnBSearch(tr, p, bo)
			if errors.Is(err, astar.ErrBudgetExhausted) {
				continue // "wherever both terminate"
			}
			if err != nil {
				t.Fatalf("nf=%d workers=%d tight=%v: BnBSearch: %v", sz.nf, bo.Workers, bo.TightBound, err)
			}
			if !bres.Complete {
				continue
			}
			if bres.MakeSpan != res.MakeSpan || bres.Cost != res.Cost {
				t.Fatalf("nf=%d workers=%d tight=%v: bnb optimum (span %d cost %d) != exact (span %d cost %d)",
					sz.nf, bo.Workers, bo.TightBound, bres.MakeSpan, bres.Cost, res.MakeSpan, res.Cost)
			}
		}
		if sz.nf <= 5 && !testing.Short() {
			eres, err := astar.Exhaustive(tr, p, astar.Options{MaxNodes: 1 << 22})
			if err != nil {
				t.Fatalf("nf=%d: Exhaustive: %v", sz.nf, err)
			}
			if eres.MakeSpan != res.MakeSpan {
				t.Fatalf("nf=%d: exhaustive optimum %d != exact %d", sz.nf, eres.MakeSpan, res.MakeSpan)
			}
		}
	}
}

// TestExactMatchesBnBOnDaCapo runs the agreement check on truncated corpus
// traces — real call-sequence shapes rather than synthetic ones.
func TestExactMatchesBnBOnDaCapo(t *testing.T) {
	benches := dacapo.Suite()
	if len(benches) > 3 {
		benches = benches[:3]
	}
	maxFuncs := 8
	if testing.Short() {
		benches = benches[:1]
		maxFuncs = 6
	}
	for _, b := range benches {
		w, err := b.Load(1.0)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		// Take the longest prefix (capped at 60 calls) that keeps the unique
		// function count inside the oracle's comfortable range.
		tr := w.Trace
		cut := tr.Len()
		if cut > 60 {
			cut = 60
		}
		for cut > 1 && tr.Slice(0, cut).UniqueFuncs() > maxFuncs {
			cut--
		}
		tr = tr.Slice(0, cut)
		res, err := exact.Solve(tr, w.Profile, exact.Options{})
		if err != nil {
			t.Fatalf("%s: exact.Solve: %v", b.Name, err)
		}
		bres, err := astar.BnBSearch(tr, w.Profile, astar.BnBOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: BnBSearch: %v", b.Name, err)
		}
		if !res.Complete || !bres.Complete {
			t.Fatalf("%s: incomplete solve (exact=%v bnb=%v)", b.Name, res.Complete, bres.Complete)
		}
		if res.MakeSpan != bres.MakeSpan {
			t.Fatalf("%s: exact %d != bnb %d", b.Name, res.MakeSpan, bres.MakeSpan)
		}
	}
}

// TestHeuristicsNeverBeatExact pins the oracle property: no heuristic — IAR,
// beam, or the online replanner — ever produces a schedule with a make-span
// below the certified optimum.
func TestHeuristicsNeverBeatExact(t *testing.T) {
	seeds := []int64{1, 7, 19}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for nf := 4; nf <= 8; nf++ {
			tr, p := instance(nf, 50, seed*100+int64(nf))
			res, err := exact.Solve(tr, p, exact.Options{})
			if err != nil {
				t.Fatalf("seed=%d nf=%d: exact: %v", seed, nf, err)
			}
			cfg := sim.Config{CompileWorkers: 1}

			iarSched, err := core.IAR(tr, p, core.IAROptions{})
			if err != nil {
				t.Fatalf("seed=%d nf=%d: iar: %v", seed, nf, err)
			}
			iarRes, err := sim.Run(tr, p, iarSched, cfg, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if iarRes.MakeSpan < res.MakeSpan {
				t.Fatalf("seed=%d nf=%d: IAR make-span %d beats the exact optimum %d",
					seed, nf, iarRes.MakeSpan, res.MakeSpan)
			}

			bres, err := astar.BeamSearch(tr, p, astar.BeamOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if bres.MakeSpan < res.MakeSpan {
				t.Fatalf("seed=%d nf=%d: beam make-span %d beats the exact optimum %d",
					seed, nf, bres.MakeSpan, res.MakeSpan)
			}

			ores, err := online.Run(tr, p, online.NewIAR(p, core.IAROptions{}, 0), online.Options{Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			if ores.Sim.MakeSpan < res.MakeSpan {
				t.Fatalf("seed=%d nf=%d: online-iar make-span %d beats the exact optimum %d",
					seed, nf, ores.Sim.MakeSpan, res.MakeSpan)
			}
		}
	}
}

// TestSolveDeterminism pins the solver's determinism contract: two solves of
// one instance agree on every counter and every schedule byte.
func TestSolveDeterminism(t *testing.T) {
	tr, p := instance(8, 50, 5)
	a, err := exact.Solve(tr, p, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := exact.Solve(tr, p, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.MakeSpan != b.MakeSpan || a.Probes != b.Probes ||
		a.NodesExpanded != b.NodesExpanded || a.NodesAllocated != b.NodesAllocated ||
		a.TableHits != b.TableHits || a.BoundPruned != b.BoundPruned ||
		a.SymmetrySkipped != b.SymmetrySkipped || a.StatesStored != b.StatesStored {
		t.Fatalf("two identical solves diverged:\n%+v\nvs\n%+v", a, b)
	}
	if len(a.Schedule) != len(b.Schedule) {
		t.Fatalf("schedule lengths diverge: %d vs %d", len(a.Schedule), len(b.Schedule))
	}
	for i := range a.Schedule {
		if a.Schedule[i] != b.Schedule[i] {
			t.Fatalf("schedules diverge at event %d: %+v vs %+v", i, a.Schedule[i], b.Schedule[i])
		}
	}
}

// TestSolveContextCancelled drives a deadline into the middle of a large
// solve and checks the ErrCancelled contract: sentinel plus context cause,
// counters filled, no schedule.
func TestSolveContextCancelled(t *testing.T) {
	tr, p := instance(13, 80, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	res, err := exact.SolveContext(ctx, tr, p, exact.Options{})
	if err == nil {
		t.Skip("instance solved before the deadline; nothing to assert")
	}
	if !errors.Is(err, exact.ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap the context cause", err)
	}
	if res == nil {
		t.Fatal("cancelled solve returned a nil result")
	}
	if res.Schedule != nil {
		t.Fatal("cancelled solve leaked a partial schedule")
	}
	if res.Complete {
		t.Fatal("cancelled solve claims completeness")
	}
}

// doneFrom is a context whose Done channel reads open on its first open
// calls and closed from then on; it counts the calls. The solver reads
// Done once at each probe boundary and once when a probe's DFS starts, so
// the count picks the poll a cancel lands on.
type doneFrom struct {
	context.Context
	open, calls int
	live, shut  chan struct{}
}

func newDoneFrom(open int) *doneFrom {
	shut := make(chan struct{})
	close(shut)
	return &doneFrom{Context: context.Background(), open: open, live: make(chan struct{}), shut: shut}
}

func (c *doneFrom) Done() <-chan struct{} {
	c.calls++
	if c.calls > c.open {
		return c.shut
	}
	return c.live
}

func (c *doneFrom) Err() error {
	if c.calls > c.open {
		return context.Canceled
	}
	return nil
}

// TestSolveContextCancelledInDFS lands a cancel inside the exact DFS, on
// its own cancelStride poll, which TestSolveContextCancelled never reaches
// (its deadline always fires in the beam upper bound). A warm solver has
// its beam bound cached; an un-cancelled solve counts the Done reads, and
// since every probe runs a DFS the last read is the final probe's DFS start.
// A context that shuts from that read on must then abort inside that DFS:
// ErrCancelled, nodes visited, no further Done read, and no schedule.
func TestSolveContextCancelledInDFS(t *testing.T) {
	tr, p := instance(8, 50, 3)
	s, err := exact.NewSolver(tr, p, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != nil { // caches the beam bound
		t.Fatal(err)
	}
	count := newDoneFrom(math.MaxInt)
	full, err := s.SolveContext(count)
	if err != nil {
		t.Fatal(err)
	}
	reads, fullNodes := count.calls, full.NodesAllocated
	if reads != 2*full.Probes {
		t.Fatalf("%d Done reads over %d probes: the last read is not a DFS start", reads, full.Probes)
	}
	ctx := newDoneFrom(reads - 1)
	res, err := s.SolveContext(ctx)
	if !errors.Is(err, exact.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if ctx.calls != reads {
		t.Fatalf("%d Done reads, want %d: the cancel landed past the final DFS", ctx.calls, reads)
	}
	if res.NodesAllocated == 0 || res.NodesAllocated >= fullNodes {
		t.Fatalf("cancelled solve visited %d nodes, want between 0 and the full solve's %d", res.NodesAllocated, fullNodes)
	}
	if res.Schedule != nil {
		t.Fatal("cancelled solve leaked a partial schedule")
	}
	if res.Complete {
		t.Fatal("cancelled solve claims completeness")
	}
}

// TestSolveBudgetExhausted pins the typed budget error (the scheduling
// service's 422 path).
func TestSolveBudgetExhausted(t *testing.T) {
	tr, p := instance(9, 50, 11)
	_, err := exact.Solve(tr, p, exact.Options{MaxNodes: 50})
	if !errors.Is(err, exact.ErrBudgetExhausted) {
		t.Fatalf("got %v, want ErrBudgetExhausted", err)
	}
}

// TestSolverWarmAllocs gates the reusable solver's steady-state allocation
// footprint: after a cold run has grown every buffer, repeat solves stay
// under a small ceiling — the DFS scratch, no-good table, and schedule
// buffers are all reused.
func TestSolverWarmAllocs(t *testing.T) {
	for _, c := range []struct {
		nf   int
		seed int64
	}{{6, 2}, {8, 5}} {
		tr, p := instance(c.nf, 50, c.seed)
		s, err := exact.NewSolver(tr, p, exact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := s.Solve(); err != nil {
				t.Fatal(err)
			}
		})
		const ceiling = 64
		if allocs > ceiling {
			t.Fatalf("%d funcs: warm exact solve allocates %.0f objects, ceiling %d", c.nf, allocs, ceiling)
		}
	}
}

// BenchmarkExactSolve reports the oracle's cost profile with its search
// counters as custom metrics.
func BenchmarkExactSolve(b *testing.B) {
	tr, p := instance(9, 50, 42+9)
	s, err := exact.NewSolver(tr, p, exact.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var last *exact.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Solve()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(float64(last.NodesExpanded), "nodes/solve")
		b.ReportMetric(float64(last.StatesStored), "states/solve")
	}
}
