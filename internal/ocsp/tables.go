// Package ocsp holds the machinery shared by every exact OCSP solver: the
// flattened per-instance timing tables, the incremental prefix evaluator of
// the Fig. 4 search tree, the admissible lower bounds (bounds.go) that both
// the branch-and-bound searches (internal/astar) and the CDCL-backed
// optimality oracle (internal/exact) prune with, and the packed state keys
// (key.go) of the oracle's no-good table.
//
// The package is deliberately mechanism-only: it has no search loop and no
// policy. A solver builds Tables once per instance, hands out Eval scratch
// per goroutine, and asks CostBound / CostBoundTight — or, walking depth
// first, a per-node Chain — for pruning decisions.
package ocsp

import (
	"repro/internal/profile"
	"repro/internal/trace"
)

// Tables is the immutable, flattened form of one OCSP instance: everything a
// search needs in cache-friendly slices, shared read-only across goroutines.
type Tables struct {
	Tr *trace.Trace
	P  *profile.Profile
	// Order lists the called functions by first appearance — the canonical
	// child-generation order of the Fig. 4 tree.
	Order []trace.FuncID
	// BestE[f] is f's best (fastest) per-call execution time over all levels.
	BestE []int64
	// Levels is the profile's level count; Compile[f*Levels+l] and
	// Exec[f*Levels+l] flatten the profile tables for the evaluation loops.
	Levels  int
	Compile []int64
	Exec    []int64
	// SufBest[i] is the §5.2 lower bound on executing calls i.. — the sum of
	// best-level execution times over the suffix (len Calls+1, last entry 0).
	SufBest []int64
	// CminC[f] is f's cheapest compile time over all levels; FirstCall[f] the
	// index of f's first call. Together they feed the compile-slack bounds.
	CminC     []int64
	FirstCall []int
}

// NewTables validates the trace against the profile and flattens the
// instance.
func NewTables(tr *trace.Trace, p *profile.Profile) (*Tables, error) {
	if err := tr.Validate(p.NumFuncs()); err != nil {
		return nil, err
	}
	t := &Tables{Tr: tr, P: p, Order: tr.FirstCallOrder(), Levels: p.Levels}
	nf := p.NumFuncs()
	t.BestE = make([]int64, nf)
	t.Compile = make([]int64, nf*p.Levels)
	t.Exec = make([]int64, nf*p.Levels)
	t.CminC = make([]int64, nf)
	for f := 0; f < nf; f++ {
		t.BestE[f] = p.BestExecTime(trace.FuncID(f))
		for l := 0; l < p.Levels; l++ {
			t.Compile[f*p.Levels+l] = p.CompileTime(trace.FuncID(f), profile.Level(l))
			t.Exec[f*p.Levels+l] = p.ExecTime(trace.FuncID(f), profile.Level(l))
			if l == 0 || t.Compile[f*p.Levels+l] < t.CminC[f] {
				t.CminC[f] = t.Compile[f*p.Levels+l]
			}
		}
	}
	t.SufBest = make([]int64, tr.Len()+1)
	for i := tr.Len() - 1; i >= 0; i-- {
		t.SufBest[i] = t.SufBest[i+1] + t.BestE[tr.Calls[i]]
	}
	t.FirstCall = tr.FirstCalls()
	return t, nil
}

// KeyFrontier is the frontier component of a search state key. While calls
// remain uncommitted the future depends only on the effective frontier
// max(ExecT, span) — call i starts there (or races a future version from the
// span), so states agreeing on it share every completion. Once every call is
// committed (cur.I == ncalls) the span stops mattering but ExecT itself
// becomes the make-span; folding different ExecT values under max(ExecT,
// span) would merge states with different optimal costs, so the committed
// tail keys on ExecT directly. FuzzStateKey's seed corpus (internal/astar)
// pins the case.
func KeyFrontier(cur Cursor, span int64, ncalls int) int64 {
	if cur.I == ncalls {
		return cur.ExecT
	}
	if span > cur.ExecT {
		return span
	}
	return cur.ExecT
}
