package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/profile"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// refLowerBound is LowerBound as a per-call sum, the reference the sum over
// the memoized call counts is diffed against.
func refLowerBound(tr *trace.Trace, p *profile.Profile) int64 {
	var sum int64
	for _, f := range tr.Calls {
		sum += p.BestExecTime(f)
	}
	return sum
}

// refLowerBoundAtLevels is LowerBoundAtLevels as a per-call scan: the level
// check reports the first call whose function has an out-of-range level.
func refLowerBoundAtLevels(tr *trace.Trace, p *profile.Profile, levels []profile.Level) (int64, error) {
	if len(levels) < tr.NumFuncs() {
		return 0, fmt.Errorf("core: got %d level choices for %d called functions", len(levels), tr.NumFuncs())
	}
	for i, f := range tr.Calls {
		if f < 0 {
			return 0, fmt.Errorf("core: trace %q: call %d has negative function id %d", tr.Name, i, f)
		}
	}
	var sum int64
	for _, f := range tr.Calls {
		l := levels[f]
		if l < 0 || int(l) >= p.Levels {
			return 0, fmt.Errorf("core: function %d assigned level %d outside [0,%d)", f, l, p.Levels)
		}
		sum += p.ExecTime(f, l)
	}
	return sum, nil
}

// TestLowerBoundsMatchReference diffs LowerBound and LowerBoundAtLevels
// against the per-call scans on the trace fuzz corpus and on traces with
// negative IDs, on a cold trace (which LowerBound must leave unindexed) and
// on one whose indices are built: values, and error strings for negative
// IDs, out-of-range levels and too few level choices.
func TestLowerBoundsMatchReference(t *testing.T) {
	inputs := testkit.FuzzCorpusTraces(t)
	for i, calls := range [][]trace.FuncID{{0, 1, -1, 2}, {3, 0, 3, -2, 1}} {
		inputs = append(inputs, trace.New(fmt.Sprintf("negative%d", i), calls))
	}
	rng := rand.New(rand.NewSource(9))
	for _, in := range inputs {
		nf := max(in.NumFuncs(), 1)
		p := testkit.Synth(nf, profile.DefaultTiming(4, 3))
		valid := in.Validate(nf) == nil
		good := make([]profile.Level, nf)
		for f := range good {
			good[f] = profile.Level(rng.Intn(p.Levels))
		}
		// Out-of-range levels on a few functions, and one choice too few.
		bad := append([]profile.Level(nil), good...)
		for range 3 {
			bad[rng.Intn(nf)] = []profile.Level{-1, profile.Level(p.Levels)}[rng.Intn(2)]
		}
		short := good[:nf-1]
		for pass, warm := range []bool{false, true} {
			tr := trace.New(in.Name, in.Calls)
			if warm {
				tr.FirstCallOrder()
			}
			if valid {
				if got, want := LowerBound(tr, p), refLowerBound(tr, p); got != want {
					t.Errorf("%s pass %d: LowerBound = %d, per-call sum = %d", in.Name, pass, got, want)
				}
				if tr.Indexed() != warm {
					t.Errorf("%s pass %d: LowerBound built a cold trace's indices", in.Name, pass)
				}
			}
			for li, levels := range [][]profile.Level{good, bad, short} {
				got, gotErr := LowerBoundAtLevels(tr, p, levels)
				want, wantErr := refLowerBoundAtLevels(tr, p, levels)
				if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("%s pass %d levels %d: LowerBoundAtLevels = %d, %v; per-call scan = %d, %v",
						in.Name, pass, li, got, gotErr, want, wantErr)
				}
			}
		}
	}
}
