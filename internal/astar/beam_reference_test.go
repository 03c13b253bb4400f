package astar

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// legacyBeamNode is one frontier prefix of the reference beam, materialised.
type legacyBeamNode struct {
	sched sim.Schedule
	next  []profile.Level // next schedulable level per function
	g     int64
	cur   cursor // committed incremental-evaluation state of sched
}

// legacyBeam is the straightforward materialising beam search, kept as the
// reference for the differential tests below: every child is built as a
// node with its own cloned schedule and next-level slice, all of them are
// stable-sorted by g, and the first Width are kept. Its serial loop is the
// one the batch-parallel expansion was pinned bit-identical to. BeamSearch
// must reproduce every Result field on every instance and width. Do not
// "improve" this copy — its value is being frozen. (The one edit: the
// expansion buffer is not preallocated to Width, so a huge width can be
// diffed.)
func legacyBeam(ctx context.Context, tr *trace.Trace, p *profile.Profile, opts BeamOptions) (*Result, error) {
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
	res := &Result{PathsTotal: totalPaths(len(s.order), p.Levels)}
	if len(s.order) == 0 {
		res.Complete = true
		res.Schedule = sim.Schedule{}
		return res, nil
	}

	type expansion struct {
		complete bool
		full     int64
		span     int64
		kids     []legacyBeamNode
	}
	start := legacyBeamNode{next: make([]profile.Level, p.NumFuncs())}
	frontier := []legacyBeamNode{start}
	const inf = int64(1)<<62 - 1
	bestCost := inf
	var bestSched sim.Schedule
	var bestSpan int64

	expand := func(pe *prefixEval, n legacyBeamNode) expansion {
		var ex expansion
		pe.Load(n.sched)
		missing := 0
		for _, f := range s.order {
			if n.next[f] == 0 {
				missing++
			}
		}
		if missing == 0 {
			ex.complete = true
			ex.full, ex.span = pe.Finish(n.cur)
		}
		for _, f := range s.order {
			for l := n.next[f]; int(l) < p.Levels; l++ {
				child := legacyBeamNode{
					sched: append(n.sched.Clone(), sim.CompileEvent{Func: f, Level: l}),
					next:  append([]profile.Level(nil), n.next...),
				}
				child.next[f] = l + 1
				child.cur, child.g = pe.Advance(n.cur, sim.CompileEvent{Func: f, Level: l})
				ex.kids = append(ex.kids, child)
			}
		}
		return ex
	}

	done := ctx.Done()
	maxDepth := len(s.order) * p.Levels
	var expansions []expansion
	for depth := 0; depth < maxDepth && len(frontier) > 0; depth++ {
		if cancelled(done) {
			return res, cancelErr(ctx)
		}
		expansions = expansions[:0]
		for i := range frontier {
			expansions = append(expansions, expand(s.pe, frontier[i]))
		}
		var next []legacyBeamNode
		for i := range frontier {
			res.NodesExpanded++
			ex := &expansions[i]
			if ex.complete && ex.full < bestCost {
				bestCost = ex.full
				bestSched = frontier[i].sched.Clone()
				bestSpan = ex.span
			}
			for _, child := range ex.kids {
				if child.g >= bestCost {
					continue // cannot beat the best complete schedule
				}
				next = append(next, child)
				res.NodesAllocated++
			}
		}
		sort.SliceStable(next, func(i, j int) bool { return next[i].g < next[j].g })
		if len(next) > width {
			next = next[:width]
		}
		frontier = next
	}
	if bestSched == nil {
		return res, fmt.Errorf("astar: beam search found no complete schedule (internal error)")
	}
	res.Schedule = bestSched
	res.MakeSpan = bestSpan
	res.Cost = bestCost
	return res, nil
}

// diffBeam runs BeamSearch and legacyBeam on one instance and fails on any
// difference in the Result or the error.
func diffBeam(t *testing.T, name string, tr *trace.Trace, p *profile.Profile, opts BeamOptions) {
	t.Helper()
	got, gotErr := BeamSearch(tr, p, opts)
	want, wantErr := legacyBeam(context.Background(), tr, p, opts)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result differs from the reference:\ngot:  %+v\nwant: %+v", name, got, want)
	}
}

// TestBeamMatchesLegacy diffs every Result field of the flat-record beam
// against the materialising reference across instance sizes, seeds and
// widths — narrow beams where truncation and ties decide the frontier, wide
// ones where the best-cost pruning does.
func TestBeamMatchesLegacy(t *testing.T) {
	seeds := int64(30)
	if testing.Short() {
		seeds = 5
	}
	for nf := 2; nf <= 12; nf++ {
		t.Run(fmt.Sprintf("nf%d", nf), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < seeds; seed++ {
				tr, p := tinyInstance(nf, 4*nf+8, 1000*int64(nf)+seed)
				for _, width := range []int{1, 3, 16, 256} {
					diffBeam(t, fmt.Sprintf("seed %d width %d", seed, width), tr, p, BeamOptions{Width: width})
				}
			}
		})
	}
}

// TestBeamMatchesLegacyEdgeCases covers the worker-count instances, a width
// far beyond any frontier (the arenas must grow with the survivors, never
// with Width), a one-function trace and an empty one.
func TestBeamMatchesLegacyEdgeCases(t *testing.T) {
	for seed := int64(700); seed < 712; seed++ {
		tr, p := tinyInstance(3+int(seed%4), 16, seed)
		for _, width := range []int{4, 64} {
			for _, workers := range []int{0, 1, 2, 8} {
				diffBeam(t, fmt.Sprintf("seed %d width %d workers %d", seed, width, workers),
					tr, p, BeamOptions{Width: width, Workers: workers})
			}
		}
	}
	tr, p := tinyInstance(3, 12, 5)
	diffBeam(t, "width 1<<30", tr, p, BeamOptions{Width: 1 << 30})
	diffBeam(t, "width MaxInt", tr, p, BeamOptions{Width: math.MaxInt})
	tr1, p1 := tinyInstance(1, 6, 9)
	diffBeam(t, "one function", tr1, p1, BeamOptions{Width: 2})
	diffBeam(t, "empty trace", trace.New("empty", nil), p, BeamOptions{})
	diffBeam(t, "negative width", tr, p, BeamOptions{Width: -1})
}
