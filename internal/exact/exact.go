// Package exact is the optimality oracle for OCSP: a decision-based exact
// solver that escalates a cost threshold from the lower bound and certifies
// the optimum.
//
// Where the searches of internal/astar minimize cost directly (and carry an
// incumbent through one big best-first or depth-first run), this solver asks a
// sequence of decision questions — "does a schedule with cost at most T
// exist?" — over the window [lower bound, upper bound]:
//
//   - the upper bound comes from a beam search (a real schedule, so its cost
//     is an upper bound on the optimum);
//   - the lower bound is the prefix-chain bound ocsp.Tables.CostBoundTight at
//     the root;
//   - each probe is a complete threshold DFS (dfs.go) over the Fig. 4 tree
//     with tight-bound pruning, a no-good state table, and a quiet-tail
//     symmetry rule.
//
// The decision structure is what makes infeasible probes cheap: a threshold
// strictly below the optimum prunes almost everything. The first FEASIBLE
// probe ends the search outright: a threshold DFS with incumbent T+1 and an
// admissible bound is a full branch-and-bound, so the best schedule it finds
// is the global optimum, not merely the best under T.
//
// Everything is deterministic — no randomness, no time, no map iteration —
// so two solves of one instance return bit-identical results and counters.
package exact

import (
	"context"
	"fmt"

	"repro/internal/astar"
	"repro/internal/obs"
	"repro/internal/ocsp"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Error aliases: exact solves fail with the same sentinels as the astar
// searches, so callers (the scheduling service's 422/504 mapping above all)
// handle every search algorithm with one errors.Is.
var (
	// ErrBudgetExhausted reports that the probes' shared node budget ran out
	// before optimality was proven.
	ErrBudgetExhausted = astar.ErrBudgetExhausted
	// ErrCancelled reports context cancellation; it wraps the context cause.
	ErrCancelled = astar.ErrCancelled
)

// Options configures a solve.
type Options struct {
	// MaxNodes bounds the total DFS nodes visited across all probes of one
	// solve (the memory/time proxy, same currency as astar.Options.MaxNodes).
	// Zero means DefaultMaxNodes.
	MaxNodes int
}

// DefaultMaxNodes gives the exact solver four times the classic searches'
// budget: its probes revisit parts of the tree, but the threshold pruning is
// far stronger, and this budget carries the §6.2.5 study through twelve
// unique functions (see testdata/astar_exact.txt).
const DefaultMaxNodes = 1 << 22

// probeJumpNodes is the refutation-cost watermark past which the escalation
// ladder stops climbing rung by rung and jumps to the terminal threshold.
const probeJumpNodes = 1 << 20

// Result reports a solve.
type Result struct {
	// Schedule is the certified-optimal compilation sequence; MakeSpan its
	// simulated finish time; Cost the make-span minus the §5.2 sum of
	// best-level execution times (the tree objective).
	Schedule sim.Schedule
	MakeSpan int64
	Cost     int64
	// Complete is true when optimality was proven (always, unless an error
	// aborted the solve).
	Complete bool
	// Probes counts threshold-escalation rounds.
	Probes int
	// SATProbes, SATRefuted and Conflicts always read 0. They stay because
	// the end-to-end benchmark reads them; a change to that benchmark
	// removes them.
	SATProbes  int
	SATRefuted int
	Conflicts  int64
	// NodesExpanded counts DFS nodes whose children were generated across all
	// probes; NodesAllocated the nodes visited (the budget currency);
	// PathsTotal the Fig. 4 root-to-leaf path estimate, for "searched k of n"
	// reporting.
	NodesExpanded  int
	NodesAllocated int
	PathsTotal     float64
	// TableHits counts nodes pruned as exact duplicates of an already-visited
	// state, BoundPruned nodes cut by the tight admissible bound against the
	// probe threshold, SymmetrySkipped children skipped by the quiet-tail
	// transposition rule, StatesStored the largest no-good table any single
	// probe built.
	TableHits       int
	BoundPruned     int
	SymmetrySkipped int
	StatesStored    int
}

// Solver is a reusable exact solver over one instance. It is not safe for
// concurrent use, but repeated Solve calls reuse the DFS scratch and the
// no-good table's storage; see TestSolverWarmAllocs.
type Solver struct {
	tab      *ocsp.Tables
	pe       *ocsp.Eval
	maxNodes int

	next   []profile.Level
	chain  *ocsp.Chain
	key    *ocsp.KeyLayout
	mask   []uint64
	keyBuf []uint64
	prefix sim.Schedule
	best   sim.Schedule
	table  nogoodTable
	frames []kidFrame
	alloc  int
	res    Result

	// The beam upper bound, computed by the first solve and cached: the beam
	// is deterministic for a fixed instance, so reuse keeps warm solves
	// bit-identical to cold ones while skipping the beam's whole allocation
	// footprint (TestSolverWarmAllocs).
	ubDone  bool
	ubCost  int64
	ubSpan  int64
	ubSched sim.Schedule
}

// NewSolver validates and flattens the instance. The profile may have at most
// 8 levels, the limit of the BnB searches, whose state keys pack a
// function's compiled set into one byte.
func NewSolver(tr *trace.Trace, p *profile.Profile, opts Options) (*Solver, error) {
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = DefaultMaxNodes
	}
	if maxNodes < 0 {
		return nil, fmt.Errorf("exact: MaxNodes must be non-negative, got %d", opts.MaxNodes)
	}
	if p.Levels > 8 {
		return nil, fmt.Errorf("exact: at most 8 levels supported, got %d", p.Levels)
	}
	tab, err := ocsp.NewTables(tr, p)
	if err != nil {
		return nil, err
	}
	key := tab.NewKeyLayout()
	return &Solver{
		tab:      tab,
		pe:       tab.NewEval(),
		maxNodes: maxNodes,
		next:     make([]profile.Level, p.NumFuncs()),
		chain:    tab.NewChain(),
		key:      key,
		mask:     make([]uint64, key.Words()),
		keyBuf:   make([]uint64, key.Words()),
	}, nil
}

// Solve runs the solver. The Result (including its Schedule) aliases the
// solver's reusable buffers and is invalidated by the next Solve; use the
// package-level Solve for an owned copy.
func (s *Solver) Solve() (*Result, error) {
	return s.SolveContext(context.Background())
}

// SolveContext is Solve with cooperative cancellation, polled every
// cancelStride DFS node visits and at every probe boundary. A done context
// aborts with ErrCancelled, counters filled, and no schedule; an un-cancelled
// solve is bit-identical to Solve.
func (s *Solver) SolveContext(ctx context.Context) (*Result, error) {
	tab := s.tab
	s.res = Result{PathsTotal: astar.TotalPaths(len(tab.Order), tab.Levels)}
	s.alloc = 0
	res := &s.res
	defer func() {
		res.NodesAllocated = s.alloc
		obs.Default().ExactSolve()
	}()
	if len(tab.Order) == 0 {
		res.Complete = true
		res.Schedule = sim.Schedule{}
		return res, nil
	}

	// Upper bound: a serial beam search (deterministic, and it always
	// completes some schedule, so its cost bounds the optimum from above).
	// Computed once per solver and cached — see the ubDone field.
	if !s.ubDone {
		ub, err := astar.BeamSearchContext(ctx, tab.Tr, tab.P, astar.BeamOptions{Workers: 1})
		if err != nil {
			return res, err
		}
		if ub.Schedule == nil {
			return res, fmt.Errorf("exact: beam search produced no schedule (internal error)")
		}
		s.ubCost, s.ubSpan = ub.Cost, ub.MakeSpan
		s.ubSched = append(s.ubSched[:0], ub.Schedule...)
		s.ubDone = true
	}
	bestCost, bestSpan := s.ubCost, s.ubSpan
	s.best = append(s.best[:0], s.ubSched...)

	clear(s.next)
	lo := tab.CostBoundTight(ocsp.Cursor{}, 0, s.next)
	if lo < 0 {
		lo = 0
	}

	// Threshold escalation on the cost, from below. Invariant: optimum ∈
	// [lo, bestCost]. Each round probes a threshold T >= lo; an infeasible
	// probe (an empty-handed complete DFS) raises lo to T+1, and a feasible
	// probe — a full branch-and-bound seeded with
	// incumbent T+1 — returns the GLOBAL optimum and ends the loop outright.
	// If lo meets bestCost first, the beam schedule itself is provably
	// optimal.
	//
	// T starts at lo and the step doubles after every infeasible probe
	// (IDA*-style). Probing low is what keeps the solve cheap in both
	// directions: below the optimum the tight incumbent T+1 makes the
	// refutation DFS collapse, and the first threshold at or past the
	// optimum arrives with the tightest incumbent any probe could have. A
	// bisecting probe order would instead open midpoint thresholds far above
	// the optimum, where the slack incumbent lets the tree explode. The
	// doubling still bounds the round count logarithmically in the
	// bound-to-optimum gap.
	//
	// Refutation cost itself grows exponentially in T − lower bound, so once
	// one refutation DFS crosses probeJumpNodes the remaining rungs would
	// each cost more than finishing outright: the ladder jumps to the
	// terminal threshold bestCost−1, a plain branch-and-bound whose
	// dynamically tightening incumbent supplies the pruning the skipped
	// rungs would have bought.
	step := int64(1)
	for lo < bestCost {
		if cancelled(ctx.Done()) {
			return res, cancelErr(ctx)
		}
		t := lo + step - 1
		if t >= bestCost {
			t = bestCost - 1
		}
		res.Probes++
		before := s.alloc
		found, c, span, err := s.dfsProbe(ctx, t)
		if err != nil {
			return res, err
		}
		if found {
			bestCost, bestSpan = c, span
			break
		}
		lo = t + 1
		if s.alloc-before > probeJumpNodes {
			step = bestCost // clamps to the terminal threshold next round
		} else {
			step *= 2
		}
	}
	res.Schedule = s.best
	res.MakeSpan = bestSpan
	res.Cost = bestCost
	res.Complete = true
	return res, nil
}

// Solve builds a solver, runs it once, and returns an independent Result.
func Solve(tr *trace.Trace, p *profile.Profile, opts Options) (*Result, error) {
	return SolveContext(context.Background(), tr, p, opts)
}

// SolveContext is Solve with cooperative cancellation.
func SolveContext(ctx context.Context, tr *trace.Trace, p *profile.Profile, opts Options) (*Result, error) {
	s, err := NewSolver(tr, p, opts)
	if err != nil {
		return nil, err
	}
	res, err := s.SolveContext(ctx)
	if res != nil {
		out := *res
		out.Schedule = res.Schedule.Clone()
		res = &out
	}
	return res, err
}

// cancelled is the non-blocking cancellation poll (nil channel — no context —
// is never ready).
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// cancelErr builds the ErrCancelled chain for a done context, matching the
// astar searches so errors.Is sees both the sentinel and the context cause.
func cancelErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCancelled, context.Cause(ctx))
}
