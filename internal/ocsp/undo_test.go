package ocsp_test

import (
	"math/rand"
	"testing"

	"repro/internal/ocsp"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// undoInstance builds a random instance with the given level count. With
// ties set, every function's compile times come from {1, 2} and its
// execution times from a narrow range, so chain terms and bounds tie often.
func undoInstance(nfuncs, levels, ncalls int, ties bool, seed int64) (*trace.Trace, *profile.Profile) {
	rng := rand.New(rand.NewSource(seed))
	p := &profile.Profile{Levels: levels, Funcs: make([]profile.FuncTimes, nfuncs)}
	for i := range p.Funcs {
		c := make([]int64, levels)
		e := make([]int64, levels)
		for l := range c {
			if ties {
				c[l] = int64(1 + rng.Intn(2))
				e[l] = int64(2 + rng.Intn(2))
			} else {
				c[l] = int64(1 + rng.Intn(9))
				e[l] = int64(1 + rng.Intn(12))
			}
		}
		p.Funcs[i] = profile.FuncTimes{Compile: c, Exec: e, Size: 1}
	}
	calls := make([]trace.FuncID, ncalls)
	for i := range calls {
		calls[i] = trace.FuncID(rng.Intn(nfuncs))
	}
	return trace.New("undo", calls), p
}

// legalEvents lists the tree's children of a node: any called function at
// any level past its last compiled one.
func legalEvents(tab *ocsp.Tables, next []profile.Level) []sim.CompileEvent {
	var evs []sim.CompileEvent
	for _, f := range tab.Order {
		for l := next[f]; int(l) < tab.Levels; l++ {
			evs = append(evs, sim.CompileEvent{Func: f, Level: l})
		}
	}
	return evs
}

// TestChainMatchesCostBoundTight holds Chain to its contract: at every node
// of random walks down the Fig. 4 tree, every child's ChildBound is the
// integer CostBoundTight computes from scratch for that child, its
// ChildFloor is no higher, and Uncovered counts the version-less called
// functions. The walks reach nodes with one and with no uncovered function,
// and the tie-heavy instances make chain terms coincide.
func TestChainMatchesCostBoundTight(t *testing.T) {
	var sawEmpty, sawSingle, sawTie bool
	for seed := int64(0); seed < 60; seed++ {
		nfuncs := 1 + int(seed%6)
		levels := 2 + int(seed%3)
		tr, p := undoInstance(nfuncs, levels, 6+int(seed%5)*5, seed%2 == 0, seed)
		tab, err := ocsp.NewTables(tr, p)
		if err != nil {
			t.Fatalf("seed %d: NewTables: %v", seed, err)
		}
		pe := tab.NewEval()
		ch := tab.NewChain()
		next := make([]profile.Level, p.NumFuncs())
		var prefix sim.Schedule
		var cur ocsp.Cursor
		rng := rand.New(rand.NewSource(seed + 500))
		for step := 0; ; step++ {
			pe.Load(prefix)
			span := pe.Span()
			ch.Reset(next)
			uncovered := 0
			for _, f := range tab.Order {
				if next[f] == 0 {
					uncovered++
				}
			}
			if ch.Uncovered() != uncovered {
				t.Fatalf("seed %d step %d: Uncovered %d, want %d", seed, step, ch.Uncovered(), uncovered)
			}
			sawEmpty = sawEmpty || uncovered == 0
			sawSingle = sawSingle || uncovered == 1
			evs := legalEvents(tab, next)
			seen := map[int64]bool{}
			for _, ev := range evs {
				ccur, _ := pe.Advance(cur, ev)
				cspan := span + p.CompileTime(ev.Func, ev.Level)
				saved := next[ev.Func]
				next[ev.Func] = ev.Level + 1
				want := tab.CostBoundTight(ccur, cspan, next)
				next[ev.Func] = saved
				if got := ch.ChildBound(ccur, cspan, ev.Func); got != want {
					t.Fatalf("seed %d step %d child %+v: ChildBound %d, CostBoundTight %d",
						seed, step, ev, got, want)
				}
				if floor := ch.ChildFloor(cur, cspan, ev.Func); floor > want {
					t.Fatalf("seed %d step %d child %+v: ChildFloor %d above the bound %d",
						seed, step, ev, floor, want)
				}
				sawTie = sawTie || seen[want]
				seen[want] = true
			}
			if len(evs) == 0 || step > 3*nfuncs*levels {
				break
			}
			ev := evs[rng.Intn(len(evs))]
			cur, _ = pe.Advance(cur, ev)
			prefix = append(prefix, ev)
			next[ev.Func] = ev.Level + 1
		}
	}
	if !sawEmpty || !sawSingle || !sawTie {
		t.Fatalf("walks missed a case: empty uncovered set %v, single %v, tied bounds %v",
			sawEmpty, sawSingle, sawTie)
	}
}

// TestPushPopMatchesLoad holds the undoable evaluator to Load: after every
// step of a random Push/Pop sequence — with a Load of the current prefix
// dropped in now and then, as beam and BnB mix them — the pushed state's
// Span, Finish and the Advance of every possible next event equal those of
// a fresh evaluator loaded with the same prefix.
func TestPushPopMatchesLoad(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		nfuncs := 1 + int(seed%5)
		levels := 2 + int(seed%3)
		tr, p := undoInstance(nfuncs, levels, 10+int(seed%4)*10, seed%3 == 0, seed)
		tab, err := ocsp.NewTables(tr, p)
		if err != nil {
			t.Fatalf("seed %d: NewTables: %v", seed, err)
		}
		pe, fresh := tab.NewEval(), tab.NewEval()
		next := make([]profile.Level, p.NumFuncs())
		var prefix sim.Schedule
		curs := []ocsp.Cursor{{}}
		rng := rand.New(rand.NewSource(seed + 900))
		for step := 0; step < 200; step++ {
			evs := legalEvents(tab, next)
			switch r := rng.Intn(10); {
			case r < 6 && len(evs) > 0:
				ev := evs[rng.Intn(len(evs))]
				c, _ := pe.Advance(curs[len(curs)-1], ev)
				pe.Push(ev)
				prefix = append(prefix, ev)
				curs = append(curs, c)
				next[ev.Func] = ev.Level + 1
			case r < 9 && len(prefix) > 0:
				ev := prefix[len(prefix)-1]
				pe.Pop(ev)
				prefix = prefix[:len(prefix)-1]
				curs = curs[:len(curs)-1]
				next[ev.Func] = ev.Level
			default:
				pe.Load(prefix)
			}
			fresh.Load(prefix)
			cur := curs[len(curs)-1]
			if pe.Span() != fresh.Span() {
				t.Fatalf("seed %d step %d: Span %d, Load gives %d", seed, step, pe.Span(), fresh.Span())
			}
			g, ms := pe.Finish(cur)
			wg, wms := fresh.Finish(cur)
			if g != wg || ms != wms {
				t.Fatalf("seed %d step %d: Finish (%d, %d), Load gives (%d, %d)", seed, step, g, ms, wg, wms)
			}
			for _, ev := range legalEvents(tab, next) {
				c, g := pe.Advance(cur, ev)
				wc, wg := fresh.Advance(cur, ev)
				if c != wc || g != wg {
					t.Fatalf("seed %d step %d: Advance(%+v) = (%+v, %d), Load gives (%+v, %d)",
						seed, step, ev, c, g, wc, wg)
				}
			}
		}
	}
}

// byteKey is the BnB transposition table's byte state key (internal/astar
// stateKey): one mask byte per function, the cursor index in 4 bytes, the
// frontier in 8.
func byteKey(mask []byte, cur ocsp.Cursor, span int64, ncalls int) string {
	key := append([]byte(nil), mask...)
	ke := ocsp.KeyFrontier(cur, span, ncalls)
	for k := 0; k < 4; k++ {
		key = append(key, byte(cur.I>>(8*k)))
	}
	for k := 0; k < 8; k++ {
		key = append(key, byte(ke>>(8*k)))
	}
	return string(key)
}

// TestKeyLayoutMatchesBytes checks that packed keys are equal exactly when
// the byte keys are, over every node of small trees (where many paths reach
// one state) and random walks of wide instances (whose frontier field
// straddles a word boundary).
func TestKeyLayoutMatchesBytes(t *testing.T) {
	type inst struct {
		nfuncs, levels, calls int
		full                  bool // walk the whole tree
	}
	insts := []inst{
		{2, 2, 8, true}, {3, 2, 10, true}, {3, 3, 12, true}, {4, 2, 9, true},
		{29, 2, 40, false}, {40, 3, 90, false}, {70, 2, 200, false},
	}
	straddled := false
	for i, in := range insts {
		for seed := int64(0); seed < 4; seed++ {
			tr, p := undoInstance(in.nfuncs, in.levels, in.calls, seed%2 == 1, int64(i)*100+seed)
			tab, err := ocsp.NewTables(tr, p)
			if err != nil {
				t.Fatal(err)
			}
			kl := tab.NewKeyLayout()
			mask := make([]uint64, kl.Words())
			bmask := make([]byte, p.NumFuncs())
			packed := make([]uint64, kl.Words())
			byBytes := map[string]string{}
			byWords := map[string]string{}
			visit := func(cur ocsp.Cursor, span int64) {
				b := byteKey(bmask, cur, span, tr.Len())
				var w []byte
				for _, x := range kl.Append(packed[:0], mask, cur, span) {
					for k := 0; k < 8; k++ {
						w = append(w, byte(x>>(8*k)))
					}
				}
				if prev, ok := byBytes[b]; ok && prev != string(w) {
					t.Fatalf("inst %d seed %d: equal byte keys packed differently", i, seed)
				}
				if prev, ok := byWords[string(w)]; ok && prev != b {
					t.Fatalf("inst %d seed %d: different byte keys packed equal", i, seed)
				}
				byBytes[b], byWords[string(w)] = string(w), b
			}
			pe := tab.NewEval()
			next := make([]profile.Level, p.NumFuncs())
			push := func(ev sim.CompileEvent) {
				pe.Push(ev)
				next[ev.Func] = ev.Level + 1
				bmask[ev.Func] |= 1 << uint(ev.Level)
				kl.Set(mask, ev.Func, ev.Level)
			}
			pop := func(ev sim.CompileEvent) {
				pe.Pop(ev)
				next[ev.Func] = ev.Level
				bmask[ev.Func] &^= 1 << uint(ev.Level)
				kl.Unset(mask, ev.Func, ev.Level)
			}
			if in.full {
				var walk func(cur ocsp.Cursor)
				walk = func(cur ocsp.Cursor) {
					visit(cur, pe.Span())
					for _, ev := range legalEvents(tab, next) {
						c, _ := pe.Advance(cur, ev)
						push(ev)
						walk(c)
						pop(ev)
					}
				}
				walk(ocsp.Cursor{})
			} else {
				rng := rand.New(rand.NewSource(seed))
				for w := 0; w < 40; w++ {
					var cur ocsp.Cursor
					var path sim.Schedule
					visit(cur, 0)
					for evs := legalEvents(tab, next); len(evs) > 0; evs = legalEvents(tab, next) {
						ev := evs[rng.Intn(len(evs))]
						cur, _ = pe.Advance(cur, ev)
						push(ev)
						path = append(path, ev)
						visit(cur, pe.Span())
					}
					for j := len(path) - 1; j >= 0; j-- {
						pop(path[j])
					}
				}
				// Mask bits plus the cursor field end within a word short
				// of the frontier's width.
				at := in.nfuncs*in.levels + bitLen(tr.Len())
				straddled = straddled || (at%64 != 0 && kl.Words() > (at+63)/64)
			}
		}
	}
	if !straddled {
		t.Fatal("no wide instance put the frontier across a word boundary")
	}
}

func bitLen(n int) int {
	b := 0
	for ; n > 0; n >>= 1 {
		b++
	}
	return b
}
