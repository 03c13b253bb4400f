package astar

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestBnBFigure1Optimal(t *testing.T) {
	p := &profile.Profile{
		Levels: 2,
		Funcs: []profile.FuncTimes{
			{Compile: []int64{1, 1}, Exec: []int64{1, 1}},
			{Compile: []int64{1, 3}, Exec: []int64{3, 2}},
			{Compile: []int64{3, 5}, Exec: []int64{3, 1}},
		},
	}
	for _, tc := range []struct {
		calls []trace.FuncID
		want  int64
	}{
		{[]trace.FuncID{0, 1, 2, 1}, 10},
		{[]trace.FuncID{0, 1, 2, 1, 2}, 12},
	} {
		tr := trace.New("fig", tc.calls)
		res, err := BnBSearch(tr, p, BnBOptions{})
		if err != nil {
			t.Fatalf("BnBSearch: %v", err)
		}
		if !res.Complete {
			t.Fatal("BnB did not prove optimality")
		}
		if res.MakeSpan != tc.want {
			t.Errorf("calls %v: make-span = %d, want %d", tc.calls, res.MakeSpan, tc.want)
		}
	}
}

// TestBnBMatchesExhaustive: BnB's certified optimum agrees with the
// exhaustive ground truth, and its schedule replays to the claimed make-span.
func TestBnBMatchesExhaustive(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		nfuncs := 2 + int(seed%4)
		ncalls := 8 + int(seed%3)*6
		tr, p := tinyInstance(nfuncs, ncalls, seed)
		want, err := Exhaustive(tr, p, Options{})
		if err != nil {
			t.Fatalf("seed %d: Exhaustive: %v", seed, err)
		}
		got, err := BnBSearch(tr, p, BnBOptions{})
		if err != nil {
			t.Fatalf("seed %d: BnBSearch: %v", seed, err)
		}
		if !got.Complete {
			t.Fatalf("seed %d: BnB did not prove optimality", seed)
		}
		if got.MakeSpan != want.MakeSpan || got.Cost != want.Cost {
			t.Errorf("seed %d: BnB (span %d, cost %d) != exhaustive (span %d, cost %d)",
				seed, got.MakeSpan, got.Cost, want.MakeSpan, want.Cost)
		}
		simRes, err := sim.Run(tr, p, got.Schedule, sim.DefaultConfig(), sim.Options{})
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		if simRes.MakeSpan != got.MakeSpan {
			t.Errorf("seed %d: claimed make-span %d, simulated %d", seed, got.MakeSpan, simRes.MakeSpan)
		}
	}
}

// TestBnBWorkersBitIdentical: every observable output of a BnB run —
// schedule, spans, costs, node and prune counters — is identical for any
// worker count, 0 included, and stable across repeated runs of a reused
// searcher.
func TestBnBWorkersBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		tr, p := tinyInstance(6, 30, seed)
		base, err := BnBSearch(tr, p, BnBOptions{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}
		for _, workers := range []int{0, 1, 2, 8} {
			b, err := NewBnB(tr, p, BnBOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 2; rep++ {
				got, err := b.Run()
				if err != nil {
					t.Fatalf("seed %d workers %d rep %d: %v", seed, workers, rep, err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("seed %d: workers=%d rep %d result differs from serial:\n got %+v\nwant %+v",
						seed, workers, rep, got, base)
				}
			}
		}
	}
}

// TestAutoDispatchBitIdentical is the determinism contract for the default
// Workers=0: across repeated runs, the full Result of both BnB and beam must
// equal the pinned serial run.
func TestAutoDispatchBitIdentical(t *testing.T) {
	for seed := int64(900); seed < 904; seed++ {
		tr, p := tinyInstance(4+int(seed%3), 18, seed)
		serialBeam, err := BeamSearch(tr, p, BeamOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		serialBnB, err := BnBSearch(tr, p, BnBOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			autoBeam, err := BeamSearch(tr, p, BeamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serialBeam, autoBeam) {
				t.Errorf("seed %d run %d: default beam differs from serial:\nserial: %+v\nauto:   %+v",
					seed, run, serialBeam, autoBeam)
			}
			autoBnB, err := BnBSearch(tr, p, BnBOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serialBnB, autoBnB) {
				t.Errorf("seed %d run %d: default BnB differs from serial:\nserial: %+v\nauto:   %+v",
					seed, run, serialBnB, autoBnB)
			}
		}
	}
}

func TestBnBBudgetExhaustion(t *testing.T) {
	tr, p := tinyInstance(7, 40, 3)
	res, err := BnBSearch(tr, p, BnBOptions{MaxNodes: 200})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if res.Complete {
		t.Error("aborted search claims completeness")
	}
	if res.NodesAllocated < 200 {
		t.Errorf("allocated %d nodes, expected to hit the 200 budget", res.NodesAllocated)
	}
}

// TestBnBWarmZeroAlloc: after a first run has grown every pool — arena
// slabs, open list, transposition-table shards, expansion buffers — repeated
// serial runs of a reused BnB do not allocate.
func TestBnBWarmZeroAlloc(t *testing.T) {
	tr, p := tinyInstance(5, 30, 1)
	b, err := NewBnB(tr, p, BnBOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := b.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm BnB.Run allocates %.1f times per run, want 0", allocs)
	}
}

// TestBnBBoundMatchesCore pins the searcher's suffix bound to the §5.2
// lower bound it is built from: over the whole trace the two must coincide.
func TestBnBBoundMatchesCore(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tr, p := tinyInstance(4, 20, seed)
		s, err := newSearcher(tr, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if lb := core.LowerBound(tr, p); s.sufBest[0] != lb {
			t.Errorf("seed %d: sufBest[0] = %d, want core.LowerBound %d", seed, s.sufBest[0], lb)
		}
		best := make([]profile.Level, p.NumFuncs())
		for f := range best {
			bl, bt := profile.Level(0), p.ExecTime(trace.FuncID(f), 0)
			for l := 1; l < p.Levels; l++ {
				if e := p.ExecTime(trace.FuncID(f), profile.Level(l)); e < bt {
					bl, bt = profile.Level(l), e
				}
			}
			best[f] = bl
		}
		atLevels, err := core.LowerBoundAtLevels(tr, p, best)
		if err != nil {
			t.Fatal(err)
		}
		if s.sufBest[0] != atLevels {
			t.Errorf("seed %d: sufBest[0] = %d, want LowerBoundAtLevels %d", seed, s.sufBest[0], atLevels)
		}
	}
}

// TestBnBTightBoundSameOptimum: the opt-in prefix-chain bound (shared with
// the exact solver via ocsp.CostBoundTight) certifies exactly the optimum the
// default bound does, on every instance — only the node and prune counters
// may differ. Together with ocsp's TestTightBoundDominates this pins the
// tight bound as a pure strengthening: never weaker, never unsound.
func TestBnBTightBoundSameOptimum(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		nfuncs := 3 + int(seed%4)
		ncalls := 10 + int(seed%3)*8
		tr, p := tinyInstance(nfuncs, ncalls, seed)
		def, err := BnBSearch(tr, p, BnBOptions{})
		if err != nil {
			t.Fatalf("seed %d: default bound: %v", seed, err)
		}
		tight, err := BnBSearch(tr, p, BnBOptions{TightBound: true})
		if err != nil {
			t.Fatalf("seed %d: tight bound: %v", seed, err)
		}
		if !def.Complete || !tight.Complete {
			t.Fatalf("seed %d: incomplete search (default %v, tight %v)",
				seed, def.Complete, tight.Complete)
		}
		if def.MakeSpan != tight.MakeSpan || def.Cost != tight.Cost {
			t.Errorf("seed %d: tight bound optimum (span %d, cost %d) != default (span %d, cost %d)",
				seed, tight.MakeSpan, tight.Cost, def.MakeSpan, def.Cost)
		}
	}
}

// TestBnBEmptyTrace mirrors the other searches' empty-instance contract.
func TestBnBEmptyTrace(t *testing.T) {
	p := &profile.Profile{Levels: 2, Funcs: []profile.FuncTimes{
		{Compile: []int64{1, 2}, Exec: []int64{2, 1}},
	}}
	res, err := BnBSearch(trace.New("empty", nil), p, BnBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Schedule) != 0 || res.MakeSpan != 0 {
		t.Errorf("empty trace: got %+v", res)
	}
}

func TestBnBOptionValidation(t *testing.T) {
	tr, p := tinyInstance(3, 8, 0)
	if _, err := NewBnB(tr, p, BnBOptions{Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := NewBnB(tr, p, BnBOptions{MaxNodes: -1}); err == nil {
		t.Error("negative budget accepted")
	}
	big := &profile.Profile{Levels: 9, Funcs: []profile.FuncTimes{{
		Compile: []int64{1, 1, 1, 1, 1, 1, 1, 1, 1},
		Exec:    []int64{9, 8, 7, 6, 5, 4, 3, 2, 1},
	}}}
	if _, err := NewBnB(trace.New("deep", []trace.FuncID{0}), big, BnBOptions{}); err == nil {
		t.Error("9-level profile accepted (state mask is one byte per function)")
	}
}
