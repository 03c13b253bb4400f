package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/astar"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/profile"
	"repro/internal/trace"
)

// search-certify: beam, branch-and-bound (Workers: 1, as the service runs
// it) and the exact oracle on §6.2.5 study instances. Search cost is
// heavy-tailed in the instance draw — the paper's point — so the suite is a
// fixed set of instances rather than a per-seed draw, which would make a
// run's cost depend on the seed more than on the code; the seed orders the
// ops of every pass. The last instance lies past branch-and-bound's default
// node budget, so the decided share can move.

type searchInstance struct {
	Funcs int   `json:"funcs"`
	Seed  int64 `json:"seed"`
}

// searchCalls is the study's call-sequence length.
const searchCalls = 50

var searchSuite = []searchInstance{
	{8, 804}, {8, 810}, {9, 903}, {9, 911}, {10, 1007}, {11, 4011}, {9, 4009},
}

var searchSuiteTiny = []searchInstance{{5, 501}, {6, 601}, {6, 602}}

func searchInstances(tiny bool) []searchInstance {
	if tiny {
		return searchSuiteTiny
	}
	return searchSuite
}

func (s searchInstance) String() string { return fmt.Sprintf("nf%d/seed%d", s.Funcs, s.Seed) }

var searchAlgos = []string{"beam", "bnb", "exact"}

type searchInput struct {
	inst       searchInstance
	tr         *trace.Trace
	p          *profile.Profile
	lowerBound int64
}

func setupSearch(insts []searchInstance) ([]*searchInput, error) {
	var out []*searchInput
	for _, inst := range insts {
		tr, p := experiments.AStarInstance(inst.Funcs, searchCalls, inst.Seed)
		in := &searchInput{inst: inst, tr: tr, p: p, lowerBound: core.LowerBound(tr, p)}
		// Warm-up: one beam search per instance sizes the heap the way a
		// long-running caller's is.
		if _, err := astar.BeamSearch(tr, p, astar.BeamOptions{Workers: 1}); err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// searchOutcome is one search op's result. Decided is false when the
// search ran out of its node budget.
type searchOutcome struct {
	MakeSpan int64
	Decided  bool
	astar    *astar.Result
	exact    *exact.Result
}

func searchOp(algo string, in *searchInput, t *tracer, op int32) (searchOutcome, error) {
	var out searchOutcome
	var err error
	switch algo {
	case "beam":
		s := t.begin("astar.beam", op, noSpan)
		out.astar, err = astar.BeamSearch(in.tr, in.p, astar.BeamOptions{Workers: 1})
		t.end(s)
	case "bnb":
		s := t.begin("astar.bnb", op, noSpan)
		out.astar, err = astar.BnBSearch(in.tr, in.p, astar.BnBOptions{Workers: 1})
		t.end(s)
	case "exact":
		s := t.begin("exact.solve", op, noSpan)
		out.exact, err = exact.Solve(in.tr, in.p, exact.Options{})
		t.end(s)
	default:
		return out, fmt.Errorf("unknown search %q", algo)
	}
	switch {
	case errors.Is(err, astar.ErrBudgetExhausted), errors.Is(err, exact.ErrBudgetExhausted):
		return out, nil
	case err != nil:
		return out, err
	}
	out.Decided = true
	if out.astar != nil {
		out.MakeSpan = out.astar.MakeSpan
	} else {
		out.MakeSpan = out.exact.MakeSpan
	}
	return out, nil
}

// checkSearch checks one outcome against the instance's optimum (when
// known): beam never beats it, a decided exact search equals it, and every
// make-span respects the §5.2 bound.
func checkSearch(algo string, in *searchInput, out searchOutcome, optimum int64) error {
	if !out.Decided {
		return nil
	}
	if out.MakeSpan < in.lowerBound {
		return fmt.Errorf("make-span %d below the lower bound %d", out.MakeSpan, in.lowerBound)
	}
	if optimum <= 0 {
		return nil
	}
	if algo == "beam" {
		if out.MakeSpan < optimum {
			return fmt.Errorf("beam make-span %d beats the optimum %d", out.MakeSpan, optimum)
		}
		return nil
	}
	if out.MakeSpan != optimum {
		return fmt.Errorf("make-span %d differs from the optimum %d", out.MakeSpan, optimum)
	}
	return nil
}

func runSearch(cfg config, t *tracer) (*report, error) {
	rep := newReport()
	insts := searchInstances(cfg.Tiny)
	var ins []*searchInput
	t.on = cfg.Trace
	setup, err := timeSetup(func() (err error) {
		ins, err = setupSearch(insts)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.E2E["setup_s"] = setup
	pins := cfg.Expect.searchPins()

	type opRef struct {
		in   *searchInput
		algo string
	}
	var ops []opRef
	for _, in := range ins {
		for _, a := range searchAlgos {
			ops = append(ops, opRef{in, a})
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5ea7c4))
	var untraced, traced, gaps []float64
	byOp := make(map[string][]float64)
	var exN, bnbN int
	var exExp, exPruned, exHits, exStored, bnbExp, bnbHits float64
	var exConf, satProbes, satRefuted int64
	start := time.Now()
	for pass := 0; ; pass++ {
		// A traced run alternates untraced and traced passes; its first
		// pass only warms up.
		t.on = cfg.Trace && pass%2 == 1
		decided := map[string]int64{}
		for _, i := range rng.Perm(len(ops)) {
			o := ops[i]
			name := o.in.inst.String() + "/" + o.algo
			op := int32(rep.Attempted)
			rep.Attempted++
			rep.sampleHost()
			c0 := cpuTime()
			out, err := searchOp(o.algo, o.in, t, op)
			d := cpuTime() - c0
			if err := rep.sampleRSS(); err != nil {
				return nil, err
			}
			ms := float64(d.Nanoseconds()) / 1e6
			if t.on {
				traced = append(traced, ms)
			} else if !cfg.Trace || pass > 0 {
				untraced = append(untraced, ms)
				byOp[name] = append(byOp[name], ms)
			}
			if err != nil {
				rep.fail("%s: %v", name, err)
				continue
			}
			if !out.Decided {
				rep.Undecided++
			}
			pin, pinned := pins[o.in.inst.String()]
			if err := checkSearch(o.algo, o.in, out, pin.Optimum); err != nil {
				rep.fail("%s: %v", name, err)
				continue
			}
			if !pinned && len(pins) > 0 {
				rep.fail("%s: no pinned optimum", name)
				continue
			}
			if out.Decided && o.algo != "beam" {
				// Without a pin, the optimal searches must agree.
				if prev, ok := decided[o.in.inst.String()]; ok && prev != out.MakeSpan {
					rep.fail("%s: make-span %d differs from the other optimal search's %d", name, out.MakeSpan, prev)
					continue
				}
				decided[o.in.inst.String()] = out.MakeSpan
			}
			if o.algo == "exact" && out.Decided {
				gaps = append(gaps, float64(out.MakeSpan)/float64(o.in.lowerBound))
			}
			if !t.on {
				continue
			}
			switch {
			case out.exact != nil:
				exN++
				exExp += float64(out.exact.NodesExpanded)
				exPruned += float64(out.exact.BoundPruned)
				exHits += float64(out.exact.TableHits)
				exStored += float64(out.exact.StatesStored)
				exConf += out.exact.Conflicts
				satProbes += int64(out.exact.SATProbes)
				satRefuted += int64(out.exact.SATRefuted)
			case o.algo == "bnb" && out.astar != nil:
				bnbN++
				bnbExp += float64(out.astar.NodesExpanded)
				bnbHits += float64(out.astar.TableHits)
			}
		}
		if time.Since(start).Seconds() >= cfg.Seconds && (!cfg.Trace || pass >= 2) {
			break
		}
	}
	t.on = cfg.Trace

	// Search cost is heavy-tailed over the suite's 21 ops, so the
	// quantiles are taken over each op's median time: which op sits at a
	// quantile then does not depend on how many passes a run made. A pass
	// at those times is the rate's pass, so a stall that slowed one op of
	// one pass does not move it.
	var perOp []float64
	var pass float64
	for _, ds := range byOp {
		perOp = append(perOp, median(ds))
		pass += median(ds)
	}
	rep.E2E["ops_per_s"] = float64(len(perOp)) / (pass / 1e3)
	rep.E2E["op_ms_p50"] = median(perOp)
	rep.E2E["op_ms_p90"] = quantile(perOp, 0.9)
	rep.E2E["makespan_gap"] = geomean(gaps)
	if cfg.Trace {
		l := t.layers()
		rep.Layer["exact.solve_ms"] = l["exact.solve"].selfMS()
		rep.Layer["exact.nodes_expanded"] = ratio(exExp, float64(exN))
		rep.Layer["exact.bound_pruned"] = ratio(exPruned, float64(exN))
		rep.Layer["exact.table_hits"] = ratio(exHits, float64(exN))
		rep.Layer["exact.conflicts"] = ratio(float64(exConf), float64(exN))
		rep.Layer["exact.states_stored"] = ratio(exStored, float64(exN))
		rep.Layer["exact.sat_refuted_ratio"] = ratio(float64(satRefuted), float64(satProbes))
		rep.Layer["astar.beam_ms"] = l["astar.beam"].selfMS()
		rep.Layer["astar.bnb_ms"] = l["astar.bnb"].selfMS()
		rep.Layer["astar.bnb_nodes_expanded"] = ratio(bnbExp, float64(bnbN))
		rep.Layer["astar.bnb_table_hits"] = ratio(bnbHits, float64(bnbN))
		rep.Layer["trace.overhead_frac"] = mean(traced)/mean(untraced) - 1
	}
	return rep, rep.finish()
}
