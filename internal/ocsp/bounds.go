package ocsp

import (
	"math"

	"repro/internal/profile"
	"repro/internal/trace"
)

// Admissible lower bounds on completing a schedule prefix, shared by the
// branch-and-bound searches (internal/astar) and the exact solver's
// make-span window (internal/exact). Both operate in the tree's cost domain
// — bubbles plus extra execution — which relates to the make-span by the
// identity cost = make-span − SufBest[0]; a caller that thinks in make-spans
// converts by adding SufBest[0].

// CostBound returns an admissible lower bound on the total cost (bubbles plus
// extra execution, the tree objective) of ANY completion of a prefix with
// committed cursor cur, compile span t, and per-function next schedulable
// levels. It tightens the paper's f(v) with two scheduling facts:
//
//   - execution cannot finish before the effective frontier max(ExecT, t)
//     plus the §5.2 best-level bound over the remaining calls (SufBest — the
//     core.LowerBoundAtLevels sum restricted to the suffix): every remaining
//     call starts at or after the frontier and runs for at least its best
//     execution time;
//   - compile slack for uncovered functions: the first call of a function
//     with no compiled version cannot start before t plus that function's
//     cheapest compile time; and since the single compile worker builds the
//     uncovered functions' versions sequentially, some uncovered function's
//     first call waits until t plus the SUM of their cheapest compile times,
//     after which at least its own suffix of best-level execution remains.
//
// Subtracting ExecT and the full suffix bound converts the make-span bound
// back to cost (the committed part of the identity above is
// cur.Bubbles+cur.Extra = ExecT − Σ committed best times).
//
// next[f] is the next schedulable level of f — 0 exactly when f has no
// compiled version. Functions outside the trace are never inspected.
func (s *Tables) CostBound(cur Cursor, t int64, next []profile.Level) int64 {
	e := cur.ExecT
	if t > e {
		e = t
	}
	flb := e + s.SufBest[cur.I]
	var cminSum, minTail int64
	k := -1
	minTail = -1
	for _, f := range s.Order {
		if next[f] != 0 {
			continue
		}
		// Uncovered functions' first calls are at or beyond cur.I: an
		// evaluated call always had a version.
		fc := s.FirstCall[f]
		cminSum += s.CminC[f]
		if k < 0 || fc < k {
			k = fc
		}
		if tail := s.SufBest[fc]; minTail < 0 || tail < minTail {
			minTail = tail
		}
	}
	if k >= 0 {
		if b := t + s.CminC[s.Tr.Calls[k]] + s.SufBest[k]; b > flb {
			flb = b
		}
		if c := t + cminSum + minTail; c > flb {
			flb = c
		}
	}
	return cur.Bubbles + cur.Extra + flb - cur.ExecT - s.SufBest[cur.I]
}

// CostBoundTight strengthens CostBound's compile-slack term into a full
// prefix chain over the uncovered functions. Let f_1, f_2, … be the uncovered
// functions in first-call order (Order is first-call order, so the uncovered
// subsequence is already sorted by FirstCall, and SufBest at those indexes is
// non-increasing). The call at FirstCall[f_j] cannot execute until every
// earlier call has executed, and those earlier calls need versions of
// f_1 … f_{j−1}; the call itself needs a version of f_j. The single compile
// worker therefore spends at least Σ_{i≤j} CminC[f_i] past the span t before
// that call can start, after which at least SufBest[FirstCall[f_j]] of
// execution remains:
//
//	make-span ≥ t + Σ_{i≤j} CminC[f_i] + SufBest[FirstCall[f_j]]   for every j.
//
// CostBound keeps only the two endpoints of this chain — j = 1 (the
// first-uncovered term, since the minimal first call belongs to f_1) and
// j = last (cminSum + minTail, since the minimal tail belongs to the last
// uncovered function) — so the maximum over all j dominates CostBound's
// compile-slack terms and the bound is never weaker. It is never used by the
// legacy searches' default paths: their goldens pin node counts under
// CostBound, and TestTightBoundDominates + the opt-in BnB TightBound runs pin
// that both bounds prove the same optimum.
func (s *Tables) CostBoundTight(cur Cursor, t int64, next []profile.Level) int64 {
	e := cur.ExecT
	if t > e {
		e = t
	}
	flb := e + s.SufBest[cur.I]
	chain := t
	for _, f := range s.Order {
		if next[f] != 0 {
			continue
		}
		chain += s.CminC[f]
		if b := chain + s.SufBest[s.FirstCall[f]]; b > flb {
			flb = b
		}
	}
	return cur.Bubbles + cur.Extra + flb - cur.ExecT - s.SufBest[cur.I]
}

// Chain is CostBoundTight's prefix chain for one node, built once so that
// every child's bound costs O(1) instead of a pass over Order. Over the
// node's uncovered functions u_1 … u_m in first-call order it holds
//
//	c_j = Σ_{i≤j} CminC[u_i] + SufBest[FirstCall[u_j]]
//
// with its prefix maxima pre and suffix maxima suf. A child that compiles a
// covered function leaves the chain as it is, max_j c_j. A child that covers
// u_k drops c_k and removes CminC[u_k] from every later sum, so its chain is
// max(pre[k−1], suf[k+1] − CminC[u_k]). Adding the child's span gives exactly
// the chain term CostBoundTight would compute for the child; ChildBound
// returns the same integer (TestChainMatchesCostBoundTight).
type Chain struct {
	t *Tables
	// pos[f] is f's 1-based index in the uncovered list, or -1 when f is covered.
	pos []int32
	// pre[j] = max(c_1 … c_j) and suf[j] = max(c_j … c_m), indexed from 1;
	// pre[0] and suf[m+1] are noChain.
	pre, suf []int64
	n        int
}

// noChain stands for an empty chain. It sits far enough from the int64
// floor that subtracting a compile time or adding a span cannot wrap, and
// far enough below every real make-span bound that it never wins a max.
const noChain = math.MinInt64 / 4

// NewChain allocates chain scratch for the instance.
func (t *Tables) NewChain() *Chain {
	m := len(t.Order)
	return &Chain{
		t:   t,
		pos: make([]int32, t.P.NumFuncs()),
		pre: make([]int64, m+2),
		suf: make([]int64, m+2),
	}
}

// Reset builds the chain for a node whose per-function next schedulable
// levels are next (0 exactly for an uncovered function).
func (c *Chain) Reset(next []profile.Level) {
	t := c.t
	n := 0
	var sum int64
	c.pre[0] = noChain
	for _, f := range t.Order {
		if next[f] != 0 {
			c.pos[f] = -1
			continue
		}
		n++
		sum += t.CminC[f]
		c.pos[f] = int32(n)
		c.pre[n] = max(c.pre[n-1], sum+t.SufBest[t.FirstCall[f]])
		c.suf[n] = sum + t.SufBest[t.FirstCall[f]]
	}
	c.suf[n+1] = noChain
	for j := n; j >= 1; j-- {
		c.suf[j] = max(c.suf[j], c.suf[j+1])
	}
	c.n = n
}

// Uncovered returns the number of called functions with no compiled version
// at the node.
func (c *Chain) Uncovered() int { return c.n }

// ChildBound returns CostBoundTight for the node's child that compiles f,
// reaching cursor cur and compile span span: the child's next levels are
// the node's with f's raised past the compiled level.
func (c *Chain) ChildBound(cur Cursor, span int64, f trace.FuncID) int64 {
	t := c.t
	flb := max(max(cur.ExecT, span)+t.SufBest[cur.I], span+c.childChain(f))
	return cur.Bubbles + cur.Extra + flb - cur.ExecT - t.SufBest[cur.I]
}

// ChildFloor returns a lower bound on ChildBound for the node's child that
// compiles f, reaching compile span span, from the node's own cursor cur —
// before Advance has computed the child's. A cursor's cost is its make-span
// bound minus SufBest[0] (the committed cost is ExecT minus the committed
// calls' best times, exactly), and Advance never lowers ExecT + SufBest[I],
// since each newly committed call adds at least its best time to ExecT. So
// the child's bound is at least max(ExecT + SufBest[I], span + chain) −
// SufBest[0]. A child whose floor already reaches the incumbent is pruned
// without being evaluated.
func (c *Chain) ChildFloor(cur Cursor, span int64, f trace.FuncID) int64 {
	t := c.t
	return max(cur.ExecT+t.SufBest[cur.I], span+c.childChain(f)) - t.SufBest[0]
}

// childChain returns the chain maximum, without the span, of the node's
// child that compiles f; noChain or a little less when the child has no
// uncovered function, which no max picks.
func (c *Chain) childChain(f trace.FuncID) int64 {
	if k := c.pos[f]; k > 0 {
		return max(c.pre[k-1], c.suf[k+1]-c.t.CminC[f])
	}
	return c.pre[c.n]
}
