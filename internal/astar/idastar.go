package astar

import (
	"context"
	"errors"

	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrTimeExhausted reports that IDA* ran out of its expansion budget — the
// time-side analogue of A*'s memory exhaustion. Together they illustrate the
// paper's §5.3 point: clever search "may still consume too much time, space
// or both".
var ErrTimeExhausted = errors.New("astar: expansion budget exhausted")

// IDAOptions configures the iterative-deepening search.
type IDAOptions struct {
	// MaxExpansions bounds the total number of node expansions across all
	// deepening iterations (0 means DefaultMaxExpansions). IDA* needs only
	// O(depth) memory, so its binding resource is time.
	MaxExpansions int
}

// DefaultMaxExpansions caps IDA* at a few million expansions — seconds of
// work, the study's stand-in for an impatient user.
const DefaultMaxExpansions = 4 << 20

// IDASearch searches the Fig. 4 tree with iterative-deepening A*:
// depth-first probes bounded by an increasing cost threshold, restarting
// with the smallest cost that exceeded the previous bound. It finds the same
// optimum as Search while storing only the current path — an extension
// beyond the paper that makes its complexity argument concrete: bounding
// memory does not rescue the search, because the tree still grows
// exponentially and IDA* pays for it in re-expansion time.
//
// The walk holds the current prefix in one evaluator (ocsp.Eval), as
// Exhaustive and the exact oracle's DFS do: each child is scored by Advance
// from its parent's cursor, pushed on descent and popped on return, so a
// node costs the calls its event pulls into the window, not a replay of
// the trace.
//
// Result.NodesExpanded counts expansions summed over all iterations;
// Result.NodesAllocated reports the maximum path length (the entire memory
// footprint).
func IDASearch(tr *trace.Trace, p *profile.Profile, opts IDAOptions) (*Result, error) {
	return IDASearchContext(context.Background(), tr, p, opts)
}

// IDASearchContext is IDASearch with cooperative cancellation, polled every
// cancelStride expansions. A done context aborts with ErrCancelled and no
// schedule; an un-cancelled run is bit-identical to IDASearch.
func IDASearchContext(ctx context.Context, tr *trace.Trace, p *profile.Profile, opts IDAOptions) (*Result, error) {
	s, err := newSearcher(tr, p, Options{MaxNodes: 1}) // node budget unused here
	if err != nil {
		return nil, err
	}
	budget := opts.MaxExpansions
	if budget == 0 {
		budget = DefaultMaxExpansions
	}
	if budget < 0 {
		return nil, errors.New("astar: MaxExpansions must be non-negative")
	}
	res := &Result{PathsTotal: totalPaths(len(s.order), p.Levels)}
	if len(s.order) == 0 {
		res.Complete = true
		res.Schedule = sim.Schedule{}
		return res, nil
	}

	const inf = int64(1)<<62 - 1
	next := make([]profile.Level, p.NumFuncs())
	missing := len(s.order) // functions of the trace not yet in the prefix
	var prefix sim.Schedule
	maxDepth := 0

	var (
		bestSched sim.Schedule
		bestSpan  int64
		bestCost  = inf
		nextBound int64
	)

	// probe explores the subtree under the current prefix with cost bound
	// `bound`, recording the cheapest complete schedule with cost <= bound
	// and the smallest cost seen above the bound (for the next iteration).
	// The evaluator holds the prefix: cur and g are the node's cursor and
	// cost, scored by its parent's Advance, and each child is pushed on
	// descent and popped on return. It returns an error only when the
	// budget dies.
	done := ctx.Done()
	pe := s.pe
	var probe func(cur cursor, g, bound int64) error
	probe = func(cur cursor, g, bound int64) error {
		if res.NodesExpanded++; res.NodesExpanded > budget {
			return ErrTimeExhausted
		}
		if res.NodesExpanded%cancelStride == 0 && cancelled(done) {
			return cancelErr(ctx)
		}
		if len(prefix) > maxDepth {
			maxDepth = len(prefix)
		}
		if g > bound {
			if g < nextBound {
				nextBound = g
			}
			return nil
		}
		if missing == 0 {
			full, span := pe.Finish(cur)
			switch {
			case full <= bound && full < bestCost:
				bestCost = full
				bestSched = prefix.Clone()
				bestSpan = span
			case full > bound && full < nextBound:
				nextBound = full
			}
		}
		if bestCost <= bound {
			return nil // this iteration already has its optimum
		}
		for _, f := range s.order {
			for l := next[f]; int(l) < p.Levels; l++ {
				saved := next[f]
				if saved == 0 {
					missing--
				}
				next[f] = l + 1
				ev := sim.CompileEvent{Func: f, Level: l}
				ccur, cg := pe.Advance(cur, ev)
				pe.Push(ev)
				prefix = append(prefix, ev)
				err := probe(ccur, cg, bound)
				prefix = prefix[:len(prefix)-1]
				pe.Pop(ev)
				next[f] = saved
				if saved == 0 {
					missing++
				}
				if err != nil {
					return err
				}
				if bestCost <= bound {
					return nil
				}
			}
		}
		return nil
	}

	bound := int64(0)
	for {
		if cancelled(done) {
			res.NodesAllocated = maxDepth
			return res, cancelErr(ctx)
		}
		nextBound = inf
		if err := probe(cursor{}, 0, bound); err != nil {
			res.NodesAllocated = maxDepth
			return res, err
		}
		if bestCost <= bound {
			res.Schedule = bestSched
			res.MakeSpan = bestSpan
			res.Cost = bestCost
			res.Complete = true
			res.NodesAllocated = maxDepth
			return res, nil
		}
		if nextBound == inf {
			res.NodesAllocated = maxDepth
			return res, errors.New("astar: IDA* exhausted the tree without a complete schedule (internal error)")
		}
		bound = nextBound
	}
}
