package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/astar"
	"repro/internal/exact"
	"repro/internal/profile"
	"repro/internal/runner"
	"repro/internal/trace"
)

// AStarRow reports one search feasibility trial (§6.2.5).
type AStarRow struct {
	// Algo is "A*" (memory-bound), "IDA*" (the time-bound,
	// iterative-deepening extension), "beam-256" (approximate), "bnb"
	// (transposition-table branch-and-bound, the frontier push), or "exact"
	// (the threshold-escalation optimality oracle of internal/exact).
	Algo           string
	UniqueFuncs    int
	Calls          int
	Completed      bool
	NodesExpanded  int
	NodesAllocated int // stored nodes for A*; path depth for IDA*
	PathsTotal     float64
	MakeSpan       int64 // only when Completed
	// TableHits and BoundPruned are the pruning counters of bnb and exact
	// (zero for the other algorithms): candidates cut as exact duplicates of
	// an already-reached state, and candidates whose admissible bound could
	// not beat the incumbent.
	TableHits   int
	BoundPruned int
}

// AStarOptions configures the feasibility study.
type AStarOptions struct {
	// MinFuncs..MaxFuncs is the range of unique-function counts to try
	// (defaults 3..8, bracketing the paper's six-function cliff).
	MinFuncs, MaxFuncs int
	// Calls is the call-sequence length (default 50, as in the paper's
	// example).
	Calls int
	// MaxNodes is the node budget standing in for the paper's 2 GB heap
	// (default astar.DefaultMaxNodes).
	MaxNodes int
	// Seed drives instance generation.
	Seed int64
	// BnBMaxFuncs, when positive, adds a branch-and-bound row at every size
	// up to BnBMaxFuncs — past MaxFuncs the sizes are BnB-only, extending the
	// table beyond the classic searches' memory wall. Zero leaves the study
	// exactly as the paper ran it.
	BnBMaxFuncs int
	// ExactMaxFuncs, when positive, adds an internal/exact oracle row at
	// every size up to ExactMaxFuncs, running under the documented
	// frontierExactMaxNodes budget. Zero leaves the study untouched.
	ExactMaxFuncs int
	// Runner receives the per-(size, algorithm) search jobs (runner.Shared()
	// if nil).
	Runner *runner.Runner
}

// AStarStudy reproduces the §6.2.5 feasibility experiment: A*-search finds
// optimal schedules for tiny instances by visiting a vanishing fraction of
// the tree, but the storage requirement explodes with the number of unique
// methods; past roughly six, the budget (memory) runs out.
//
// Each (size, algorithm) pair is one runner job, keyed by only what its row
// depends on, so studies that share rows — the classic trio under every
// option set, the bnb rows with and without exact — compute each once per
// runner and take the repeats from its cache. The make-span cross-checks
// between the optimal searches run once every row is in.
func AStarStudy(opts AStarOptions) ([]AStarRow, error) {
	if opts.MinFuncs == 0 {
		opts.MinFuncs = 3
	}
	if opts.MaxFuncs == 0 {
		opts.MaxFuncs = 8
	}
	if opts.Calls == 0 {
		opts.Calls = 50
	}
	if opts.MinFuncs < 1 || opts.MaxFuncs < opts.MinFuncs {
		return nil, errors.New("experiments: invalid A* study function range")
	}

	top := max(opts.MaxFuncs, opts.BnBMaxFuncs, opts.ExactMaxFuncs)
	var jobs []runner.Job[AStarRow]
	add := func(nf int, algo string, maxNodes bool) {
		detail := fmt.Sprintf("nf=%d calls=%d", nf, opts.Calls)
		if maxNodes {
			detail += fmt.Sprintf(" maxnodes=%d", opts.MaxNodes)
		}
		jobs = append(jobs, runner.Job[AStarRow]{
			Key: runner.Key{Experiment: "astar feasibility", Scheme: algo, Seed: opts.Seed, Detail: detail},
			Fn: func(_ runner.Ctx) (AStarRow, error) {
				tr, p := AStarInstance(nf, opts.Calls, opts.Seed+int64(nf))
				return aStarRow(tr, p, algo, opts.MaxNodes)
			},
		})
	}
	for nf := opts.MinFuncs; nf <= top; nf++ {
		if nf <= opts.MaxFuncs {
			add(nf, "A*", true)
			add(nf, "IDA*", false)
			add(nf, "beam-256", false)
		}
		if opts.BnBMaxFuncs > 0 && nf <= opts.BnBMaxFuncs {
			add(nf, "bnb", true)
		}
		if opts.ExactMaxFuncs > 0 && nf <= opts.ExactMaxFuncs {
			add(nf, "exact", false)
		}
	}
	eng := opts.Runner
	if eng == nil {
		eng = runner.Shared()
	}
	rows, err := runner.Map(eng, jobs)
	if err != nil {
		return nil, err
	}
	// Every optimal search that finished must agree with those before it
	// at its size: IDA* with A*, bnb with both, and the exact oracle with
	// all three.
	for i, row := range rows {
		var peers []string
		switch row.Algo {
		case "IDA*":
			peers = []string{"A*"}
		case "bnb":
			peers = []string{"A*", "IDA*"}
		case "exact":
			peers = []string{"A*", "IDA*", "bnb"}
		}
		for _, r := range rows[:i] {
			if r.UniqueFuncs == row.UniqueFuncs && slices.Contains(peers, r.Algo) &&
				r.Completed && row.Completed && r.MakeSpan != row.MakeSpan {
				return nil, fmt.Errorf("experiments: %s and %s disagree at %d functions (%d vs %d)",
					r.Algo, row.Algo, row.UniqueFuncs, r.MakeSpan, row.MakeSpan)
			}
		}
	}
	return rows, nil
}

// aStarRow runs one search on one instance: A* and bnb under the node
// budget, IDA* under its expansion budget, beam at its default width, and
// the exact oracle under frontierExactMaxNodes. A search that runs out of
// budget yields an incomplete row with its counters; any other failure is
// an error.
func aStarRow(tr *trace.Trace, p *profile.Profile, algo string, maxNodes int) (AStarRow, error) {
	row := AStarRow{Algo: algo, UniqueFuncs: p.NumFuncs(), Calls: tr.Len()}
	var (
		res       *astar.Result
		err       error
		exhausted error
	)
	switch algo {
	case "A*":
		res, err = astar.Search(tr, p, astar.Options{MaxNodes: maxNodes})
		exhausted = astar.ErrBudgetExhausted
	case "IDA*":
		// The IDA* extension: memory bounded by the path, so the budget is
		// expansions (time). It hits the same exponential wall.
		res, err = astar.IDASearch(tr, p, astar.IDAOptions{})
		exhausted = astar.ErrTimeExhausted
	case "beam-256":
		// Beam search abandons optimality for a width-bounded budget: it
		// returns a (possibly suboptimal) schedule at every size and never
		// proves it optimal.
		res, err = astar.BeamSearch(tr, p, astar.BeamOptions{})
		if err != nil {
			return row, err
		}
		row.NodesExpanded, row.NodesAllocated, row.PathsTotal = res.NodesExpanded, res.NodesAllocated, res.PathsTotal
		row.MakeSpan = res.MakeSpan
		return row, nil
	case "bnb":
		res, err = astar.BnBSearch(tr, p, astar.BnBOptions{MaxNodes: maxNodes})
		exhausted = astar.ErrBudgetExhausted
	case "exact":
		xres, xerr := exact.Solve(tr, p, exact.Options{MaxNodes: frontierExactMaxNodes})
		if xerr != nil && !errors.Is(xerr, exact.ErrBudgetExhausted) {
			return row, xerr
		}
		if xerr == nil {
			row.Completed, row.MakeSpan = xres.Complete, xres.MakeSpan
		}
		// A failed solve still reports its counters.
		row.NodesExpanded, row.NodesAllocated, row.PathsTotal = xres.NodesExpanded, xres.NodesAllocated, xres.PathsTotal
		row.TableHits, row.BoundPruned = xres.TableHits, xres.BoundPruned
		return row, nil
	default:
		return row, fmt.Errorf("experiments: unknown A* study algorithm %q", algo)
	}
	if err != nil && !errors.Is(err, exhausted) {
		return row, err
	}
	row.NodesExpanded, row.NodesAllocated, row.PathsTotal = res.NodesExpanded, res.NodesAllocated, res.PathsTotal
	row.TableHits, row.BoundPruned = res.TableHits, res.BoundPruned
	if err == nil {
		row.Completed, row.MakeSpan = res.Complete, res.MakeSpan
	}
	return row, nil
}

// frontierExactMaxNodes is the documented node budget for the study's exact
// oracle rows: 16x the classic searches' default, the budget under which the
// oracle certifies twelve-function instances (and exposes thirteen as the
// current wall; see testdata/astar_exact.txt).
const frontierExactMaxNodes = 1 << 26

// AStarInstance builds a random two-level OCSP instance in the style of the
// paper's §6.2.5 example: nf unique functions, a mixed-hotness call
// sequence, and per-function level tradeoffs that make ordering matter.
func AStarInstance(nf, calls int, seed int64) (*trace.Trace, *profile.Profile) {
	rng := rand.New(rand.NewSource(seed))
	p := &profile.Profile{Levels: 2, Funcs: make([]profile.FuncTimes, nf)}
	for i := range p.Funcs {
		cl := int64(1 + rng.Intn(3))
		ch := cl + 1 + int64(rng.Intn(10))
		eh := int64(1 + rng.Intn(3))
		el := eh + 1 + int64(rng.Intn(10))
		p.Funcs[i] = profile.FuncTimes{Compile: []int64{cl, ch}, Exec: []int64{el, eh}, Size: 1}
	}
	seq := make([]trace.FuncID, calls)
	for i := range seq {
		// A Zipf-ish skew: function j gets weight 1/(j+1).
		r := rng.Float64()
		var total float64
		for j := 0; j < nf; j++ {
			total += 1 / float64(j+1)
		}
		r *= total
		var acc float64
		id := 0
		for j := 0; j < nf; j++ {
			acc += 1 / float64(j+1)
			if r <= acc {
				id = j
				break
			}
		}
		seq[i] = trace.FuncID(id)
	}
	// Guarantee every function appears so the instance truly has nf unique
	// methods.
	for j := 0; j < nf && j < len(seq); j++ {
		seq[j*len(seq)/nf] = trace.FuncID(j)
	}
	return trace.New("astar-study", seq), p
}
