package astar

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Beam search: a bounded-width variant of the Fig. 4 tree search. Where A*
// keeps every incompletely-examined path (and dies of memory) and IDA*
// re-expands (and dies of time), beam search keeps only the Width most
// promising prefixes per depth level — abandoning optimality guarantees for
// a memory/time budget that scales with Width × depth. It sits between the
// paper's two poles: a *search-flavoured* approximation to contrast with
// the *constructive* IAR heuristic.

// BeamOptions configures a beam search.
type BeamOptions struct {
	// Width is the number of prefixes kept per depth (0 means DefaultBeamWidth).
	Width int
	// Workers is validated (negative is an error) but otherwise ignored:
	// every value runs the one serial loop, so the result is identical for
	// every worker count. The batch-parallel expansion it once sized was
	// slower than serial on every measured instance.
	Workers int
}

// DefaultBeamWidth keeps a few hundred prefixes per depth.
const DefaultBeamWidth = 256

// beamKid is one scored child of a frontier node: a compact, pointer-free
// record of its g, its committed evaluation state, the event that extends
// its parent (a frontier row index), and its generation order within the
// depth. Only the Width survivors are built into rows.
type beamKid struct {
	g      int64
	cur    cursor
	seq    int
	parent int32
	fn     trace.FuncID
	level  profile.Level
}

// worse orders children by g, then generation order: the order a stable
// sort by g gives, as a total order.
func (a *beamKid) worse(b *beamKid) bool {
	return a.g > b.g || a.g == b.g && a.seq > b.seq
}

// beamTop keeps the width best children offered, in generation order, under
// worse. Once full it is a max-heap, so a child that cannot enter costs one
// comparison with the root: about twice as fast as sorting every child.
type beamTop struct {
	kids  []beamKid
	width int
}

func (t *beamTop) offer(k beamKid) {
	if n := len(t.kids); n < t.width {
		t.kids = append(t.kids, k)
		for i := n / 2; n+1 == t.width && i >= 0; i-- {
			t.down(i)
		}
	} else if t.kids[0].worse(&k) {
		t.kids[0] = k
		t.down(0)
	}
}

// down restores the heap order below i.
func (t *beamTop) down(i int) {
	h := t.kids
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1].worse(&h[c]) {
			c++
		}
		if !h[c].worse(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}

// BeamSearch explores the schedule tree breadth-first, keeping the Width
// lowest-cost prefixes at each depth, and returns the best complete schedule
// encountered. The result is valid but not necessarily optimal.
//
// Each depth is one serial pass over the frontier in order: a node's
// prefix is loaded once, a complete node updates the best schedule, and its
// children are scored incrementally, dropping any that cannot beat the best
// complete cost. The Width lowest-g children, ties going to the earlier
// generated as a stable sort by g would, are selected as flat records and
// only those are built: their schedules and next-level vectors are rows of
// two flat arenas that swap roles each depth and grow with the survivor
// count, never with Width.
func BeamSearch(tr *trace.Trace, p *profile.Profile, opts BeamOptions) (*Result, error) {
	return BeamSearchContext(context.Background(), tr, p, opts)
}

// BeamSearchContext is BeamSearch with cooperative cancellation, polled at
// every depth boundary (a depth expands at most Width nodes). A done context
// aborts with ErrCancelled and no schedule — even when a complete schedule
// was already seen at an earlier depth, so a cancelled search never reports a
// result the un-cancelled search would have improved. An un-cancelled run is
// bit-identical to BeamSearch.
func BeamSearchContext(ctx context.Context, tr *trace.Trace, p *profile.Profile, opts BeamOptions) (*Result, error) {
	s, err := newSearcher(tr, p, Options{MaxNodes: 1})
	if err != nil {
		return nil, err
	}
	width := opts.Width
	if width == 0 {
		width = DefaultBeamWidth
	}
	if width < 1 {
		return nil, fmt.Errorf("astar: beam width must be >= 1, got %d", opts.Width)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("astar: beam workers must be non-negative, got %d", opts.Workers)
	}
	res := &Result{PathsTotal: totalPaths(len(s.order), p.Levels)}
	if len(s.order) == 0 {
		res.Complete = true
		res.Schedule = sim.Schedule{}
		return res, nil
	}

	// Frontier node i at depth d is frontier[i] plus row i of the arenas:
	// sched[i*d:(i+1)*d] and next[i*nf:(i+1)*nf]. The survivors of a depth
	// are built into nsched/nnext, which then swap with sched/next.
	nf := p.NumFuncs()
	frontier := []cursor{{}}
	var sched, nsched []sim.CompileEvent
	next, nnext := make([]profile.Level, nf), []profile.Level(nil)
	top := beamTop{width: width}
	const inf = int64(1)<<62 - 1
	bestCost := inf
	var bestSched sim.Schedule
	var bestSpan int64

	pe := s.pe
	done := ctx.Done()
	maxDepth := len(s.order) * p.Levels
	for depth := 0; depth < maxDepth && len(frontier) > 0; depth++ {
		if cancelled(done) {
			return res, cancelErr(ctx)
		}
		top.kids = top.kids[:0]
		seq := 0
		for i, cur := range frontier {
			res.NodesExpanded++
			row := sched[i*depth : (i+1)*depth]
			lv := next[i*nf : (i+1)*nf]
			pe.Load(row)
			complete := true
			for _, f := range s.order {
				if lv[f] == 0 {
					complete = false
					break
				}
			}
			if complete {
				if full, span := pe.Finish(cur); full < bestCost {
					bestCost, bestSpan = full, span
					bestSched = append(bestSched[:0], row...)
				}
			}
			for _, f := range s.order {
				for l := lv[f]; int(l) < p.Levels; l++ {
					c, g := pe.Advance(cur, sim.CompileEvent{Func: f, Level: l})
					if g >= bestCost {
						continue // cannot beat the best complete schedule
					}
					res.NodesAllocated++
					top.offer(beamKid{g: g, cur: c, parent: int32(i), seq: seq, fn: f, level: l})
					seq++
				}
			}
		}
		kids := top.kids
		slices.SortFunc(kids, func(a, b beamKid) int {
			if c := cmp.Compare(a.g, b.g); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})

		d := depth + 1
		nsched = slices.Grow(nsched[:0], len(kids)*d)[:len(kids)*d]
		nnext = slices.Grow(nnext[:0], len(kids)*nf)[:len(kids)*nf]
		frontier = frontier[:0]
		for j, k := range kids {
			pi := int(k.parent)
			row := nsched[j*d : (j+1)*d]
			copy(row, sched[pi*depth:(pi+1)*depth])
			row[depth] = sim.CompileEvent{Func: k.fn, Level: k.level}
			lv := nnext[j*nf : (j+1)*nf]
			copy(lv, next[pi*nf:(pi+1)*nf])
			lv[k.fn] = k.level + 1
			frontier = append(frontier, k.cur)
		}
		sched, nsched = nsched, sched
		next, nnext = nnext, next
	}
	if bestSched == nil {
		return res, fmt.Errorf("astar: beam search found no complete schedule (internal error)")
	}
	res.Schedule = bestSched
	res.MakeSpan = bestSpan
	res.Cost = bestCost
	// Beam search never proves optimality; Complete stays false by design.
	return res, nil
}
