package astar

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// randomPrefix builds a random legal prefix (per-function ascending levels)
// of the given depth, plus the per-function next-level state reached.
func randomPrefix(rng *rand.Rand, order []trace.FuncID, levels, depth int) sim.Schedule {
	nextOf := map[trace.FuncID]profile.Level{}
	var prefix sim.Schedule
	for len(prefix) < depth {
		// Collect the functions that can still take an event; a level jump
		// (l > next) burns the skipped levels, so capacity shrinks fast.
		var open []trace.FuncID
		for _, f := range order {
			if int(nextOf[f]) < levels {
				open = append(open, f)
			}
		}
		if len(open) == 0 {
			break
		}
		f := open[rng.Intn(len(open))]
		nl := nextOf[f]
		l := nl + profile.Level(rng.Intn(levels-int(nl)))
		prefix = append(prefix, sim.CompileEvent{Func: f, Level: l})
		nextOf[f] = l + 1
	}
	return prefix
}

// cost is the reference the searches' evaluator (ocsp.Eval) is diffed
// against: the paper's f(v) for a prefix computed from scratch — bubbles
// plus extra execution accumulated within the prefix's compile span t(v).
// For a complete prefix (every called function compiled), full == true
// evaluates the entire run, making the cost exact; it then also returns the
// make-span.
func (s *searcher) cost(prefix sim.Schedule, full bool) (g, makeSpan int64) {
	p := s.p
	// Single compile worker: finish times are prefix sums.
	type version struct {
		done  int64
		level profile.Level
	}
	versions := make(map[trace.FuncID][]version, len(prefix))
	var t int64
	for _, ev := range prefix {
		t += p.CompileTime(ev.Func, ev.Level)
		versions[ev.Func] = append(versions[ev.Func], version{t, ev.Level})
	}
	span := t // t(v): when the prefix's compilations end

	var execT, bubbles, extra int64
	for _, f := range s.tr.Calls {
		vs := versions[f]
		if len(vs) == 0 {
			// Blocked on a future compilation: everything up to t(v) is a
			// known bubble; nothing beyond is attributable yet.
			if span > execT {
				bubbles += span - execT
			}
			return bubbles + extra, 0
		}
		start := execT
		if vs[0].done > start {
			start = vs[0].done
		}
		if !full && start >= span {
			// The call starts outside the prefix window; its cost belongs
			// to descendants.
			return bubbles + extra, 0
		}
		bubbles += start - execT
		level := vs[0].level
		for _, v := range vs[1:] {
			if v.done <= start {
				level = v.level
			}
		}
		dur := p.ExecTime(f, level)
		extra += dur - s.bestE[f]
		execT = start + dur
	}
	return bubbles + extra, execT
}

// TestCursorMatchesCost pins the incremental prefix evaluation to the
// reference cost function: for randomized legal prefixes, the cursor chain
// built by advance reproduces cost(prefix, false) at every step, and finish
// reproduces cost(prefix, true) — g and make-span both — once the prefix is
// complete.
func TestCursorMatchesCost(t *testing.T) {
	for seed := int64(500); seed < 540; seed++ {
		tr, p := tinyInstance(4, 20, seed)
		s, err := newSearcher(tr, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		maxDepth := len(s.order) * p.Levels
		prefix := randomPrefix(rng, s.order, p.Levels, 1+rng.Intn(maxDepth))

		pe := s.newPrefixEval()
		var cur cursor
		for i := 1; i <= len(prefix); i++ {
			pe.Load(prefix[:i-1])
			var g int64
			cur, g = pe.Advance(cur, prefix[i-1])
			wantG, _ := s.cost(prefix[:i], false)
			if g != wantG {
				t.Fatalf("seed %d depth %d: advance g = %d, cost = %d (prefix %v)",
					seed, i, g, wantG, prefix[:i])
			}
		}

		// Complete the prefix (compile every still-missing function at level
		// 0) and compare the exact evaluation.
		compiled := make(map[trace.FuncID]bool)
		for _, ev := range prefix {
			compiled[ev.Func] = true
		}
		full := prefix.Clone()
		for _, f := range s.order {
			if !compiled[f] {
				pe.Load(full)
				var g int64
				ev := sim.CompileEvent{Func: f, Level: 0}
				cur, g = pe.Advance(cur, ev)
				full = append(full, ev)
				if wantG, _ := s.cost(full, false); g != wantG {
					t.Fatalf("seed %d: completing advance g = %d, cost = %d", seed, g, wantG)
				}
			}
		}
		pe.Load(full)
		g, span := pe.Finish(cur)
		wantG, wantSpan := s.cost(full, true)
		if g != wantG || span != wantSpan {
			t.Fatalf("seed %d: finish = (%d, %d), cost(full) = (%d, %d) for %v",
				seed, g, span, wantG, wantSpan, full)
		}
	}
}

// TestBeamWorkersBitIdentical is the worker-count determinism contract:
// every observable Result field is identical for 1, 2, and 8 workers,
// across instances and widths.
func TestBeamWorkersBitIdentical(t *testing.T) {
	for seed := int64(700); seed < 712; seed++ {
		tr, p := tinyInstance(3+int(seed%4), 16, seed)
		for _, width := range []int{4, 64} {
			serial, err := BeamSearch(tr, p, BeamOptions{Width: width, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				par, err := BeamSearch(tr, p, BeamOptions{Width: width, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial, par) {
					t.Errorf("seed %d width %d: %d-worker result differs from serial:\nserial: %+v\npar:    %+v",
						seed, width, workers, serial, par)
				}
			}
		}
	}
}

// TestBeamRejectsBadWorkers covers the new option's validation.
func TestBeamRejectsBadWorkers(t *testing.T) {
	tr, p := tinyInstance(3, 10, 1)
	if _, err := BeamSearch(tr, p, BeamOptions{Workers: -2}); err == nil {
		t.Error("negative worker count accepted")
	}
}

// BenchmarkBeamSearch measures the full beam pipeline (incremental scoring,
// selection and survivor building) on a mid-size instance. It and
// BenchmarkBeamSearchSerial run the same serial loop — Workers no longer
// changes how beam runs — and both names stay so the ledger in
// BENCH_core.json and BENCH_search.json stays comparable across commits.
func BenchmarkBeamSearch(b *testing.B) {
	benchBeam(b, runtime.GOMAXPROCS(0))
}

// BenchmarkBeamSearchSerial is BenchmarkBeamSearch with Workers pinned to 1.
func BenchmarkBeamSearchSerial(b *testing.B) {
	benchBeam(b, 1)
}

func benchBeam(b *testing.B, workers int) {
	tr, p := tinyInstance(7, 60, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BeamSearch(tr, p, BeamOptions{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}
