// Package astar implements the tree-search formulation of OCSP from §5.3 of
// the paper, with the A* heuristic f(v) = b(v) + e(v): the bubbles plus the
// extra (non-fully-optimized) execution time accumulated within the compile
// span of the schedule prefix at node v.
//
// As the paper shows, A* finds optimal schedules for tiny instances (around
// six unique functions) and then exhausts memory: it must keep every
// incompletely-examined path, and the tree grows exponentially. The search
// here accepts a node budget standing in for the paper's 2 GB Java heap, and
// reports how much of the tree it stored.
//
// The package also provides an exhaustive branch-and-bound search usable as
// ground truth on even smaller instances.
package astar

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/ocsp"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrBudgetExhausted reports that the search stored more nodes than the
// configured budget — the analogue of the paper's A* runs aborting with
// out-of-memory beyond six unique methods.
var ErrBudgetExhausted = errors.New("astar: node budget exhausted")

// ErrCancelled reports that a search's context was cancelled before it could
// prove an answer. A cancelled search never returns a partial schedule: the
// Result carries only the exploration counters accumulated so far. The error
// wraps the context's cause, so errors.Is matches both ErrCancelled and
// context.Canceled / context.DeadlineExceeded.
var ErrCancelled = errors.New("astar: search cancelled")

// cancelErr builds the ErrCancelled chain for a done context.
func cancelErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCancelled, context.Cause(ctx))
}

// cancelled is the non-blocking cancellation poll used at batch boundaries.
// The done channel is captured once per search; context.Background yields a
// nil channel, which is never ready, so the no-cancel fast path costs one
// branch and allocates nothing.
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// cancelStride is how many node visits a depth-first search goes between
// cancellation polls. Cancellation only ever aborts a run — it never alters
// which nodes a surviving run visits — so the stride trades promptness
// against per-node overhead without touching determinism.
const cancelStride = 256

// Options configures a search.
type Options struct {
	// MaxNodes bounds the number of tree nodes ever allocated (a proxy for
	// memory). Zero means DefaultMaxNodes.
	MaxNodes int
}

// DefaultMaxNodes caps the search at about a million nodes, roughly what a
// 2 GB Java heap held for the paper's implementation: with this budget the
// §6.2.5 study completes through six unique methods and aborts beyond, as in
// the paper.
const DefaultMaxNodes = 1 << 20

// Result reports a search outcome.
type Result struct {
	// Schedule is the best complete compilation sequence found (the optimal
	// one when Complete is true).
	Schedule sim.Schedule
	// MakeSpan is the schedule's make-span.
	MakeSpan int64
	// Cost is MakeSpan minus the sum of best-level execution times — the
	// bubbles-plus-extra-execution objective the tree search minimizes.
	Cost int64
	// Complete is true if the search proved optimality.
	Complete bool
	// NodesExpanded counts interior nodes whose children were generated;
	// NodesAllocated counts every node ever created (the memory footprint);
	// PathsTotal is the total number of root-to-leaf orderings of the full
	// tree (capped at 1<<62), for "searched k of n paths" reporting.
	NodesExpanded  int
	NodesAllocated int
	PathsTotal     float64
	// BnB-only counters (zero for the other searches): TableHits counts
	// candidates pruned as exact duplicates of an already-reached canonical
	// state, BoundPruned nodes cut by the admissible bound against the
	// incumbent, StatesStored the distinct canonical states in the table at
	// the end of the run.
	TableHits    int
	BoundPruned  int
	StatesStored int
}

// node is one vertex of the search tree: the compilation schedule prefix
// from the root, represented by a parent link plus the last event.
type node struct {
	parent *node
	event  sim.CompileEvent
	depth  int
	// cur is the committed incremental-evaluation state of the prefix (see
	// eval.go); children resume from it instead of re-simulating the trace.
	cur  cursor
	g    int64
	stop bool // a "stop" leaf: prefix is a complete schedule, g exact
	seq  int  // tie-break for deterministic pops
}

// nodeHeap is a min-heap on (g, seq).
type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].g != h[j].g {
		return h[i].g < h[j].g
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// heapCapFor sizes the open list's initial capacity from the node budget so
// the hot search loop does not pay repeated append regrowth. The cap keeps a
// tiny search from reserving the whole default (million-node) budget up
// front; past it, doubling from a 32Ki base costs a handful of copies total.
func heapCapFor(budget int) int {
	const maxPrealloc = 1 << 15
	if budget > maxPrealloc {
		return maxPrealloc
	}
	return budget
}

// searcher carries the immutable problem plus scratch space. The immutable
// part is the flattened timing tables, order, bestE, and bounds of
// ocsp.Tables; the scratch is pe and the counters. The table slices are
// aliased into named fields so the search loops read in this package's
// short vocabulary.
type searcher struct {
	tab    *ocsp.Tables
	tr     *trace.Trace
	p      *profile.Profile
	order  []trace.FuncID // functions by first appearance
	bestE  []int64        // best exec time per function
	levels int
	// compile[f*levels+l] and exec[f*levels+l] flatten the profile tables
	// for the evaluation inner loops.
	compile []int64
	exec    []int64
	// sufBest[i] is the §5.2 lower bound on executing calls i.. — the sum of
	// best-level execution times over the suffix (len Calls+1, last entry 0).
	// cminC[f] is f's cheapest compile time over all levels; firstCall[f] the
	// index of f's first call. Together they feed boundFrom.
	sufBest   []int64
	cminC     []int64
	firstCall []int
	pe        *prefixEval
	budget    int
	alloc     int
	seq       int
}

func newSearcher(tr *trace.Trace, p *profile.Profile, opts Options) (*searcher, error) {
	budget := opts.MaxNodes
	if budget == 0 {
		budget = DefaultMaxNodes
	}
	if budget < 0 {
		return nil, fmt.Errorf("astar: MaxNodes must be non-negative, got %d", opts.MaxNodes)
	}
	tab, err := ocsp.NewTables(tr, p)
	if err != nil {
		return nil, err
	}
	s := &searcher{
		tab:       tab,
		tr:        tr,
		p:         p,
		order:     tab.Order,
		bestE:     tab.BestE,
		levels:    tab.Levels,
		compile:   tab.Compile,
		exec:      tab.Exec,
		sufBest:   tab.SufBest,
		cminC:     tab.CminC,
		firstCall: tab.FirstCall,
		budget:    budget,
	}
	s.pe = s.newPrefixEval()
	return s, nil
}

// boundFrom is the admissible completion bound every search here prunes
// with: ocsp.Tables.CostBound, the extraction of this package's historical
// bound into the shared bounds machinery. The legacy searches stay on
// CostBound (their goldens pin node counts under it); BnBOptions.TightBound
// opts branch-and-bound into the strictly-dominating CostBoundTight chain.
func (s *searcher) boundFrom(cur cursor, t int64, next []profile.Level) int64 {
	return s.tab.CostBound(cur, t, next)
}

// prefix reconstructs the schedule along the parent chain of n.
func (s *searcher) prefix(n *node) sim.Schedule {
	events := make(sim.Schedule, n.depth)
	for v := n; v.parent != nil; v = v.parent {
		events[v.depth-1] = v.event
	}
	return events
}

// statuses returns, for each function, the next schedulable level (0 if the
// function is uncompiled, lastLevel+1 otherwise), plus how many functions in
// the trace remain uncompiled.
func (s *searcher) statuses(n *node) (next []profile.Level, missing int) {
	next = make([]profile.Level, s.p.NumFuncs())
	for v := n; v.parent != nil; v = v.parent {
		if l := v.event.Level + 1; l > next[v.event.Func] {
			next[v.event.Func] = l
		}
	}
	for _, f := range s.order {
		if next[f] == 0 {
			missing++
		}
	}
	return next, missing
}

// children generates the nodes reachable from n per the Fig. 4 tree: any
// called function may be compiled at any level not below its next allowed
// level; a lower-level compilation never follows a higher one. The parent's
// version lists are loaded once; every child is scored by resuming the
// parent's cursor over the newly-in-window calls.
func (s *searcher) children(n *node) ([]*node, error) {
	next, missing := s.statuses(n)
	s.pe.Load(s.prefix(n))
	var kids []*node
	for _, f := range s.order {
		for l := next[f]; int(l) < s.p.Levels; l++ {
			if s.alloc >= s.budget {
				return kids, ErrBudgetExhausted
			}
			s.alloc++
			s.seq++
			child := &node{
				parent: n,
				event:  sim.CompileEvent{Func: f, Level: l},
				depth:  n.depth + 1,
				seq:    s.seq,
			}
			child.cur, child.g = s.pe.Advance(n.cur, child.event)
			kids = append(kids, child)
		}
	}
	if missing == 0 && !n.stop {
		// A complete prefix gets a "stop" leaf with the exact total cost.
		if s.alloc >= s.budget {
			return kids, ErrBudgetExhausted
		}
		s.alloc++
		s.seq++
		leaf := &node{parent: n.parent, event: n.event, depth: n.depth, cur: n.cur, stop: true, seq: s.seq}
		leaf.g, _ = s.pe.Finish(n.cur)
		kids = append(kids, leaf)
	}
	return kids, nil
}

// Search runs A* and returns the optimal schedule, or a partial Result plus
// ErrBudgetExhausted when the node budget runs out first.
func Search(tr *trace.Trace, p *profile.Profile, opts Options) (*Result, error) {
	return SearchContext(context.Background(), tr, p, opts)
}

// SearchContext is Search with cooperative cancellation: the context is
// polled before every node expansion, and a done context aborts the search
// with ErrCancelled and no schedule. An un-cancelled SearchContext is
// bit-identical to Search.
func SearchContext(ctx context.Context, tr *trace.Trace, p *profile.Profile, opts Options) (*Result, error) {
	s, err := newSearcher(tr, p, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{PathsTotal: totalPaths(len(s.order), p.Levels)}
	if len(s.order) == 0 {
		res.Complete = true
		res.Schedule = sim.Schedule{}
		return res, nil
	}

	done := ctx.Done()
	root := &node{}
	h := make(nodeHeap, 0, heapCapFor(s.budget))
	open := &h
	heap.Push(open, root)
	for open.Len() > 0 {
		if cancelled(done) {
			res.NodesAllocated = s.alloc
			return res, cancelErr(ctx)
		}
		n := heap.Pop(open).(*node)
		if n.stop {
			sched := s.prefix(n)
			s.pe.Load(sched)
			_, span := s.pe.Finish(n.cur)
			res.Schedule = sched
			res.MakeSpan = span
			res.Cost = n.g
			res.Complete = true
			res.NodesAllocated = s.alloc
			return res, nil
		}
		res.NodesExpanded++
		kids, err := s.children(n)
		for _, k := range kids {
			heap.Push(open, k)
		}
		if err != nil {
			res.NodesAllocated = s.alloc
			return res, err
		}
	}
	res.NodesAllocated = s.alloc
	return res, fmt.Errorf("astar: search space exhausted without a complete schedule (internal error)")
}

// Exhaustive enumerates the same tree depth-first with branch-and-bound
// pruning and returns the certified optimal schedule. Only usable on tiny
// instances; intended as ground truth for tests and for the §6.2.5 study.
//
// Each node is scored by resuming its parent's incremental cursor (the same
// prefixEval the other searches use) and pruned against the tightened
// admissible bound of boundFrom rather than the paper's bare f(v). Both
// changes keep the returned schedule bit-identical to the original
// enumeration: the bound is admissible, so no node on the path to a strictly
// better schedule is ever cut, and the DFS visit order is unchanged — only
// the number of nodes visited shrinks.
func Exhaustive(tr *trace.Trace, p *profile.Profile, opts Options) (*Result, error) {
	return ExhaustiveContext(context.Background(), tr, p, opts)
}

// ExhaustiveContext is Exhaustive with cooperative cancellation, polled every
// cancelStride node visits. A done context aborts with ErrCancelled and no
// schedule; an un-cancelled run is bit-identical to Exhaustive.
func ExhaustiveContext(ctx context.Context, tr *trace.Trace, p *profile.Profile, opts Options) (*Result, error) {
	s, err := newSearcher(tr, p, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{PathsTotal: totalPaths(len(s.order), p.Levels)}
	if len(s.order) == 0 {
		res.Complete = true
		res.Schedule = sim.Schedule{}
		return res, nil
	}

	bestCost := int64(1)<<62 - 1
	var bestSched sim.Schedule
	var bestSpan int64

	next := make([]profile.Level, p.NumFuncs())
	missing := len(s.order) // functions of the trace not yet in the prefix
	var prefix sim.Schedule

	// dfs visits the node whose prefix the evaluator holds, with cursor
	// cur; each child is pushed on descent and popped on return.
	done := ctx.Done()
	pe := s.pe
	var dfs func(cur cursor) error
	dfs = func(cur cursor) error {
		if s.alloc++; s.alloc > s.budget {
			return ErrBudgetExhausted
		}
		if s.alloc%cancelStride == 0 && cancelled(done) {
			return cancelErr(ctx)
		}
		if s.boundFrom(cur, pe.Span(), next) >= bestCost {
			return nil // admissible bound: no descendant can improve
		}
		if missing == 0 {
			full, span := pe.Finish(cur)
			if full < bestCost {
				bestCost = full
				bestSched = prefix.Clone()
				bestSpan = span
			}
		}
		res.NodesExpanded++
		for _, f := range s.order {
			for l := next[f]; int(l) < p.Levels; l++ {
				saved := next[f]
				if saved == 0 {
					missing--
				}
				next[f] = l + 1
				ev := sim.CompileEvent{Func: f, Level: l}
				ccur, _ := pe.Advance(cur, ev)
				pe.Push(ev)
				prefix = append(prefix, ev)
				err := dfs(ccur)
				prefix = prefix[:len(prefix)-1]
				pe.Pop(ev)
				next[f] = saved
				if saved == 0 {
					missing++
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	}
	if cancelled(done) {
		return res, cancelErr(ctx)
	}
	if err := dfs(cursor{}); err != nil {
		res.NodesAllocated = s.alloc
		return res, err
	}
	res.Schedule = bestSched
	res.MakeSpan = bestSpan
	res.Cost = bestCost
	res.Complete = true
	res.NodesAllocated = s.alloc
	return res, nil
}

// totalPathsMemo caches totalPaths per (m, levels): every study row and every
// search on an instance of the same shape re-asks the same question, and the
// factorial loop is pure.
var totalPathsMemo sync.Map // [2]int -> float64

// totalPaths estimates the number of root-to-leaf paths of the Fig. 4 tree:
// every interleaving of each function's (possibly partial) ascending level
// chain. For the two-level case this matches the paper's (2M)! flavour of
// growth; the value saturates once the running product clears 1e300 (the
// division by per-function orderings is skipped from there, see
// TestTotalPathsSaturation) and is only for reporting.
// TotalPaths exposes the path-count estimate to sibling packages: the exact
// solver (internal/exact) reports the same "searched k of n paths" figure for
// its frontier rows.
func TotalPaths(m, levels int) float64 { return totalPaths(m, levels) }

func totalPaths(m, levels int) float64 {
	key := [2]int{m, levels}
	if v, ok := totalPathsMemo.Load(key); ok {
		return v.(float64)
	}
	v := computeTotalPaths(m, levels)
	totalPathsMemo.Store(key, v)
	return v
}

func computeTotalPaths(m, levels int) float64 {
	if m == 0 {
		return 1
	}
	// Count orderings of the maximal chains only (each function compiled at
	// every level): (m*levels)! / (levels!)^m — a lower bound on the leaf
	// count, mirroring the paper's "12!" for 6 functions at 2 levels.
	total := 1.0
	for i := 2; i <= m*levels; i++ {
		total *= float64(i)
		if total > 1e300 {
			return total
		}
	}
	perFunc := 1.0
	for i := 2; i <= levels; i++ {
		perFunc *= float64(i)
	}
	for i := 0; i < m; i++ {
		total /= perFunc
	}
	return total
}
