package ocsp

import (
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Incremental prefix evaluation.
//
// Re-simulating the whole trace for every node costs O(N + depth) per child.
// But the Fig. 4 tree only ever grows a prefix by one tail event, and the
// paper's f(v) = b(v) + e(v) objective only charges calls starting inside the
// prefix's compile span — so a child's cost is its parent's cost plus
// whatever the one new event pulls into the window. The cursor below carries
// the committed evaluation state (next unevaluated call, exec clock, bubbles,
// extra) from parent to child; expanding a node loads the parent's version
// lists once and then scores each child by resuming the execution loop over
// only the newly-in-window calls, with the child's new version as a
// non-mutating overlay.
//
// Why resumption is sound: a committed call started strictly inside the
// parent's span, every later event finishes at or after that span (compile
// times are positive), and a call's start never precedes its function's
// first-ready time — so no extension of the prefix can change a committed
// call's start, level, or end. The two stop conditions mirror the from-scratch
// evaluation exactly: a call whose function has no version yet contributes
// the provisional bubble up to the span (uncommitted, recomputed at each
// node); a call starting at or past the span belongs to descendants.
// TestCursorMatchesCost (internal/astar) pins g and make-span bit-identical
// to the reference evaluation across randomized prefixes.
//
// The loaded prefix is an undoable state. Searches that jump between nodes
// (beam, BnB, A*) Load each node's prefix; a depth-first walk instead Pushes
// the one event it descends by and Pops it on return, each O(1): the event's
// version goes on the end of its function's list (done times only grow with
// the span, so the list stays sorted) and the span moves by its compile
// time. TestPushPopMatchesLoad pins every Push/Pop sequence to a fresh Load.

// Cursor is the committed incremental-evaluation state of a prefix.
type Cursor struct {
	I       int   // index of the first unevaluated call
	ExecT   int64 // exec clock after the last committed call
	Bubbles int64 // committed bubble time
	Extra   int64 // committed extra (non-best-level) execution time
}

// Eval is the reusable per-goroutine scratch: the loaded prefix's
// per-function version lists (done times are single-worker prefix sums, so
// each list is sorted ascending) plus the prefix's compile span.
type Eval struct {
	t       *Tables
	vdone   [][]int64
	vlevel  [][]profile.Level
	touched []trace.FuncID
	span    int64
}

// NewEval allocates evaluation scratch for the instance.
func (t *Tables) NewEval() *Eval {
	return &Eval{
		t:      t,
		vdone:  make([][]int64, t.P.NumFuncs()),
		vlevel: make([][]profile.Level, t.P.NumFuncs()),
	}
}

// Span returns the loaded prefix's compile span.
func (pe *Eval) Span() int64 { return pe.span }

// Load rebuilds the version lists for a prefix, truncating only the lists
// the previous Load touched.
func (pe *Eval) Load(prefix sim.Schedule) {
	for _, f := range pe.touched {
		pe.vdone[f] = pe.vdone[f][:0]
		pe.vlevel[f] = pe.vlevel[f][:0]
	}
	pe.touched = pe.touched[:0]
	t := pe.t
	var span int64
	for _, ev := range prefix {
		span += t.Compile[int(ev.Func)*t.Levels+int(ev.Level)]
		if len(pe.vdone[ev.Func]) == 0 {
			pe.touched = append(pe.touched, ev.Func)
		}
		pe.vdone[ev.Func] = append(pe.vdone[ev.Func], span)
		pe.vlevel[ev.Func] = append(pe.vlevel[ev.Func], ev.Level)
	}
	pe.span = span
}

// Push extends the loaded prefix by ev: it appends ev's version, finishing
// at the new span, to its function's list. Pop(ev) undoes it. A depth-first
// walk pushes on descent and pops on return, so each node costs one append
// instead of a Load of its whole prefix; the lists, the span and touched end
// exactly as Load(prefix) leaves them.
func (pe *Eval) Push(ev sim.CompileEvent) {
	t := pe.t
	pe.span += t.Compile[int(ev.Func)*t.Levels+int(ev.Level)]
	if len(pe.vdone[ev.Func]) == 0 {
		pe.touched = append(pe.touched, ev.Func)
	}
	pe.vdone[ev.Func] = append(pe.vdone[ev.Func], pe.span)
	pe.vlevel[ev.Func] = append(pe.vlevel[ev.Func], ev.Level)
}

// Pop removes the loaded prefix's last event, which must be ev. Pushes and
// pops nest, so a function whose list empties is the last one touched.
func (pe *Eval) Pop(ev sim.CompileEvent) {
	t := pe.t
	pe.span -= t.Compile[int(ev.Func)*t.Levels+int(ev.Level)]
	n := len(pe.vdone[ev.Func]) - 1
	pe.vdone[ev.Func] = pe.vdone[ev.Func][:n]
	pe.vlevel[ev.Func] = pe.vlevel[ev.Func][:n]
	if n == 0 {
		pe.touched = pe.touched[:len(pe.touched)-1]
	}
}

// Advance scores the loaded prefix extended by ev: it resumes the execution
// loop from cur, committing every call that now starts inside the extended
// window, and returns the child's cursor plus its g. The new event's version
// (finishing exactly at the child's span, strictly after every loaded done
// time) is applied as an overlay; the scratch is not mutated, so one Load
// serves all children of a node.
func (pe *Eval) Advance(cur Cursor, ev sim.CompileEvent) (Cursor, int64) {
	t := pe.t
	span := pe.span + t.Compile[int(ev.Func)*t.Levels+int(ev.Level)]
	ovF := ev.Func
	calls := t.Tr.Calls
	for cur.I < len(calls) {
		f := calls[cur.I]
		dones := pe.vdone[f]
		first := span // the overlay's finish time, when it is f's only version
		if len(dones) > 0 {
			first = dones[0]
		} else if f != ovF {
			// Blocked on a future compilation: everything up to the span is
			// a known bubble, provisional because the span keeps moving.
			g := cur.Bubbles + cur.Extra
			if span > cur.ExecT {
				g += span - cur.ExecT
			}
			return cur, g
		}
		start := cur.ExecT
		if first > start {
			start = first
		}
		if start >= span {
			// The call starts outside the window; its cost belongs to
			// descendants.
			return cur, cur.Bubbles + cur.Extra
		}
		// Committed calls start strictly inside the window, and the overlay
		// version finishes exactly at its edge — so the level choice only
		// ever sees the loaded versions. (A call whose sole version is the
		// overlay took the window exit above.)
		lvls := pe.vlevel[f]
		level := lvls[0]
		for k := 1; k < len(dones); k++ {
			if dones[k] <= start {
				level = lvls[k]
			}
		}
		dur := t.Exec[int(f)*t.Levels+int(level)]
		cur.Bubbles += start - cur.ExecT
		cur.Extra += dur - t.BestE[f]
		cur.ExecT = start + dur
		cur.I++
	}
	return cur, cur.Bubbles + cur.Extra
}

// Finish evaluates every remaining call of the loaded prefix with no window,
// the exact total cost of a complete prefix: it returns the cost and the
// make-span.
func (pe *Eval) Finish(cur Cursor) (g, makeSpan int64) {
	t := pe.t
	calls := t.Tr.Calls
	for cur.I < len(calls) {
		f := calls[cur.I]
		dones := pe.vdone[f]
		if len(dones) == 0 {
			// Unreachable for a complete prefix; mirrors the blocked branch
			// of Advance for defense in depth.
			if pe.span > cur.ExecT {
				cur.Bubbles += pe.span - cur.ExecT
			}
			return cur.Bubbles + cur.Extra, 0
		}
		start := cur.ExecT
		if dones[0] > start {
			start = dones[0]
		}
		lvls := pe.vlevel[f]
		level := lvls[0]
		for k := 1; k < len(dones); k++ {
			if dones[k] <= start {
				level = lvls[k]
			}
		}
		dur := t.Exec[int(f)*t.Levels+int(level)]
		cur.Bubbles += start - cur.ExecT
		cur.Extra += dur - t.BestE[f]
		cur.ExecT = start + dur
		cur.I++
	}
	return cur.Bubbles + cur.Extra, cur.ExecT
}
