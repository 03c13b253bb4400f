// Package trace models dynamic call sequences of a program run.
//
// A Trace is the first input of the Optimal Compilation Scheduling Problem
// (OCSP, Definition 1 of the paper): an ordered sequence of function
// invocations. Each element identifies the function invoked; a function can
// appear once or many times. Traces are what the paper collects from Jikes RVM
// executions of the DaCapo benchmarks; here they are either built by hand,
// decoded from a file, or synthesized by a Generator.
package trace

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// FuncID identifies a function (a compilation unit). IDs are dense: a trace
// over F functions uses IDs 0..F-1.
type FuncID int32

// Trace is an ordered sequence of function invocations.
//
// A trace is logically immutable once analysis begins: the first call to
// NumFuncs, Counts, FirstCalls or FirstCallOrder derives all four in one pass
// and memoizes them on the trace, so the thousands of simulations an
// experiment runs over the same trace share one copy of each index. Callers
// building a trace incrementally (decoders, generators) must finish appending
// to Calls before handing the trace to any consumer. The memoized slices are
// shared between callers — treat them as read-only.
type Trace struct {
	// Name labels the workload (e.g. a benchmark name). Optional.
	Name string
	// Calls is the invocation sequence, in execution order.
	Calls []FuncID

	memo atomic.Pointer[traceMemo]
}

// traceMemo holds the derived indices of a trace, computed once. Negative
// IDs, which Validate rejects, are left out of the indices; minID records
// that there are any.
type traceMemo struct {
	numFuncs   int
	minID      FuncID // smallest ID in the trace; 0 for an empty trace
	counts     []int64
	firstCalls []int
	firstOrder []FuncID
}

// index returns the memoized derived indices, computing them on first use.
// Concurrent first calls may each compute the memo; exactly one wins the
// publish and the results are identical either way.
func (t *Trace) index() *traceMemo {
	if m := t.memo.Load(); m != nil {
		return m
	}
	n, lo := 0, FuncID(0)
	for _, f := range t.Calls {
		if int(f) >= n {
			n = int(f) + 1
		}
		lo = min(lo, f)
	}
	m := &traceMemo{
		numFuncs:   n,
		minID:      lo,
		counts:     make([]int64, n),
		firstCalls: make([]int, n),
	}
	for i := range m.firstCalls {
		m.firstCalls[i] = -1
	}
	for i, f := range t.Calls {
		if f < 0 {
			continue
		}
		m.counts[f]++
		if m.firstCalls[f] < 0 {
			m.firstCalls[f] = i
			m.firstOrder = append(m.firstOrder, f)
		}
	}
	t.memo.CompareAndSwap(nil, m)
	return t.memo.Load()
}

// New returns a trace over the given calls.
func New(name string, calls []FuncID) *Trace {
	return &Trace{Name: name, Calls: calls}
}

// Len returns the number of invocations in the trace.
func (t *Trace) Len() int { return len(t.Calls) }

// NumFuncs returns one more than the largest FuncID present, i.e. the size of
// the dense ID space. An empty trace has zero functions. The indices below
// leave out negative IDs, which a valid trace (Validate) does not have.
func (t *Trace) NumFuncs() int { return t.index().numFuncs }

// Validate checks that all IDs are non-negative and, if nfuncs >= 0, within
// [0, nfuncs). On a trace whose indices are already built it answers from
// their ID range and scans the calls only to name the first offending one.
func (t *Trace) Validate(nfuncs int) error {
	if m := t.memo.Load(); m != nil && m.minID >= 0 && (nfuncs < 0 || m.numFuncs <= nfuncs) {
		return nil
	}
	for i, f := range t.Calls {
		if f < 0 {
			return fmt.Errorf("trace %q: call %d has negative function id %d", t.Name, i, f)
		}
		if nfuncs >= 0 && int(f) >= nfuncs {
			return fmt.Errorf("trace %q: call %d references function %d beyond %d", t.Name, i, f, nfuncs)
		}
	}
	return nil
}

// Indexed reports whether the trace's memoized indices are already built,
// so that a caller whose per-call pass could instead read them knows it can
// do so without an O(calls) index build of its own.
func (t *Trace) Indexed() bool { return t.memo.Load() != nil }

// Counts returns the number of invocations of each function, indexed by
// FuncID, sized by NumFuncs. The slice is memoized and shared — read-only.
func (t *Trace) Counts() []int64 { return t.index().counts }

// FirstCalls returns, for each function, the index in Calls of its first
// invocation, or -1 for functions that never appear. The slice is memoized
// and shared — read-only.
func (t *Trace) FirstCalls() []int { return t.index().firstCalls }

// FirstCallOrder returns the distinct functions of the trace in order of
// first appearance. This is the paper's Eseq1 = getSeq1stCalls(Eseq), the
// backbone of both the single-level schedules and IAR's initial schedule.
// The slice is memoized and shared — read-only.
func (t *Trace) FirstCallOrder() []FuncID { return t.index().firstOrder }

// UniqueFuncs returns the number of distinct functions that actually appear.
func (t *Trace) UniqueFuncs() int { return len(t.index().firstOrder) }

// Slice returns a shallow sub-trace of calls [lo, hi).
func (t *Trace) Slice(lo, hi int) *Trace {
	return &Trace{Name: t.Name, Calls: t.Calls[lo:hi]}
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	calls := make([]FuncID, len(t.Calls))
	copy(calls, t.Calls)
	return &Trace{Name: t.Name, Calls: calls}
}

// Stats summarizes a trace: length, distinct function count, and the skew of
// the invocation-frequency distribution. It mirrors the columns of Table 1.
type Stats struct {
	Name        string
	Length      int
	UniqueFuncs int
	// MaxCount is the invocation count of the hottest function.
	MaxCount int64
	// Top10Share is the fraction of all calls going to the 10 hottest
	// functions (1.0 if fewer than 10 functions exist).
	Top10Share float64
	// MedianCount is the median invocation count over appearing functions.
	MedianCount int64
}

// ComputeStats derives Stats from the trace.
func ComputeStats(t *Trace) Stats {
	counts := t.Counts()
	appearing := make([]int64, 0, len(counts))
	for _, c := range counts {
		if c > 0 {
			appearing = append(appearing, c)
		}
	}
	sort.Slice(appearing, func(i, j int) bool { return appearing[i] > appearing[j] })
	s := Stats{Name: t.Name, Length: t.Len(), UniqueFuncs: len(appearing)}
	if len(appearing) == 0 {
		return s
	}
	s.MaxCount = appearing[0]
	var top, total int64
	for i, c := range appearing {
		total += c
		if i < 10 {
			top += c
		}
	}
	s.Top10Share = float64(top) / float64(total)
	s.MedianCount = appearing[len(appearing)/2]
	return s
}
