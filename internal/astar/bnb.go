package astar

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/ocsp"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Branch-and-bound with a transposition table: the searcher that pushes the
// §6.2.5 feasibility frontier past the paper's six-function memory wall.
//
// A* (Search) stores every incompletely-examined *path* of the Fig. 4 tree,
// so its memory grows with the factorial path count. But many paths reach the
// same *state* — the same per-function compiled levels with execution
// evaluated up to the same call — and the state graph is exponentially
// smaller than the path tree. BnB explores best-first like A*, with three
// additions:
//
//   - a transposition table (transpose.go) canonicalizes every node to its
//     state key — compiled-level mask, next call, effective execution
//     frontier — and prunes every node whose exact state has been reached
//     before (see transpose.go for why nothing weaker than exact equality
//     is sound here);
//   - nodes are ordered and pruned by the tightened admissible bound of
//     searcher.boundFrom (compile-slack plus the §5.2 suffix bound), not the
//     paper's bare f(v) = b(v) + e(v), and an incumbent (the best complete
//     schedule committed so far) cuts everything that cannot strictly beat
//     it;
//   - nodes are popped in fixed-size batches: the incumbent a batch's pops
//     are pruned against is the one the previous batch left, and a stop
//     leaf popped behind live nodes waits for the next batch.
//
// The search is serial. Memory is pooled: nodes live in slab arenas
// addressed by index, the open list is a slice of those indexes, and the
// table keeps its storage across runs — a warm BnB does not allocate.

// BnBOptions configures a branch-and-bound search.
type BnBOptions struct {
	// MaxNodes bounds the number of arena nodes ever allocated (the memory
	// proxy, same currency as Options.MaxNodes). Zero means DefaultMaxNodes.
	MaxNodes int
	// Workers is validated (negative is an error) but otherwise ignored:
	// every value runs the same serial search. The field stays because the
	// end-to-end benchmark sets it; a change to that benchmark removes it.
	Workers int
	// TightBound switches pruning from the historical ocsp.Tables.CostBound
	// to the strictly-dominating prefix-chain CostBoundTight (the exact
	// solver's bound). Both are admissible, so the optimum is unchanged —
	// only node counts shrink; the default stays off because the §6.2.5
	// goldens pin the historical counters.
	TightBound bool
}

// bnbBatch is the number of nodes popped per round. The batch boundary is
// part of the search's definition: pops are pruned against the incumbent as
// it stood when the round began, and testdata/astar_bnb.txt pins the
// counters that follow from it.
const bnbBatch = 64

// bnbSlabSize is the arena slab granularity.
const bnbSlabSize = 1 << 14

// bnbNode is one stored search node. Nodes are addressed by arena index and
// reference their parent the same way, so a run's whole tree lives in a few
// reusable slabs.
type bnbNode struct {
	cur    cursor
	g      int64 // committed cost (exact total for stop leaves)
	f      int64 // admissible total-cost bound; == g for stop leaves
	span   int64 // compile span t of the prefix (make-span for stop leaves)
	seq    int64
	parent int32 // arena index, -1 at the root
	depth  int32
	event  sim.CompileEvent
	stop   bool
}

// bnbChild is a scored candidate child of an expanded node; the commit
// decides whether it becomes a node.
type bnbChild struct {
	cur  cursor
	g    int64 // committed cost (exact total when stop)
	f    int64
	span int64 // child compile span (make-span when stop)
	hash uint64
	ev   sim.CompileEvent
	stop bool
}

// bnbArena allocates nodes from fixed-size slabs kept across runs.
type bnbArena struct {
	slabs [][]bnbNode
	n     int
}

func (a *bnbArena) reset() { a.n = 0 }

func (a *bnbArena) alloc() int32 {
	slab, off := a.n/bnbSlabSize, a.n%bnbSlabSize
	if slab == len(a.slabs) {
		a.slabs = append(a.slabs, make([]bnbNode, bnbSlabSize))
	}
	a.n++
	return int32(slab*bnbSlabSize + off)
}

func (a *bnbArena) at(i int32) *bnbNode {
	return &a.slabs[i/bnbSlabSize][i%bnbSlabSize]
}

// BnB is a reusable branch-and-bound searcher over one instance. It is not
// safe for concurrent use, but repeated Run calls reuse every internal
// buffer; see TestBnBWarmZeroAlloc.
type BnB struct {
	s      *searcher
	bnd    func(cursor, int64, []profile.Level) int64
	stride int

	arena bnbArena
	table transTable
	open  []int32 // min-heap of arena indexes on (f, seq)

	// Expansion scratch: the expanded node's prefix evaluator, prefix,
	// per-function next levels and compiled mask, and its scored children
	// with their state keys (table stride apiece).
	pe     *prefixEval
	prefix sim.Schedule
	next   []profile.Level
	mask   []byte
	kids   []bnbChild
	keys   []byte

	// rootKey is scratch for the root's state key; popped is the batch of
	// live popped nodes.
	rootKey []byte
	popped  []int32

	seq   int64
	paths float64 // totalPaths, computed once so Run stays allocation-free
	res   Result
	sched sim.Schedule
}

// NewBnB builds a reusable searcher for the instance. The profile may have at
// most 8 levels (a state key packs a function's compiled set into one byte).
func NewBnB(tr *trace.Trace, p *profile.Profile, opts BnBOptions) (*BnB, error) {
	s, err := newSearcher(tr, p, Options{MaxNodes: opts.MaxNodes})
	if err != nil {
		return nil, err
	}
	if p.Levels > 8 {
		return nil, fmt.Errorf("astar: BnB supports at most 8 levels, got %d", p.Levels)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("astar: BnB workers must be non-negative, got %d", opts.Workers)
	}
	nf := p.NumFuncs()
	b := &BnB{
		s:       s,
		bnd:     s.tab.CostBound,
		stride:  nf + 12,
		open:    make([]int32, 0, heapCapFor(s.budget)),
		pe:      s.newPrefixEval(),
		next:    make([]profile.Level, nf),
		mask:    make([]byte, nf),
		rootKey: make([]byte, nf+12),
		popped:  make([]int32, 0, bnbBatch),
		paths:   totalPaths(len(s.order), p.Levels),
	}
	if opts.TightBound {
		b.bnd = s.tab.CostBoundTight
	}
	return b, nil
}

// BnBSearch is the convenience wrapper: build, run once, return an
// independent Result.
func BnBSearch(tr *trace.Trace, p *profile.Profile, opts BnBOptions) (*Result, error) {
	return BnBSearchContext(context.Background(), tr, p, opts)
}

// BnBSearchContext is BnBSearch with cooperative cancellation (see
// RunContext).
func BnBSearchContext(ctx context.Context, tr *trace.Trace, p *profile.Profile, opts BnBOptions) (*Result, error) {
	b, err := NewBnB(tr, p, opts)
	if err != nil {
		return nil, err
	}
	res, err := b.RunContext(ctx)
	if res != nil {
		out := *res
		out.Schedule = res.Schedule.Clone()
		res = &out
	}
	return res, err
}

// Run executes the search and returns the optimal schedule, or a partial
// Result plus ErrBudgetExhausted. The Result (including its Schedule) aliases
// the searcher's reusable buffers and is invalidated by the next Run; use
// BnBSearch for an owned copy.
func (b *BnB) Run() (*Result, error) {
	return b.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation, polled once per batch
// (bnbBatch pops). A done context aborts between batches with ErrCancelled,
// counters filled, and no schedule; an un-cancelled run is bit-identical to
// Run. A warm cancellable run still allocates nothing; see
// TestBnBWarmZeroAllocCancellable.
func (b *BnB) RunContext(ctx context.Context) (*Result, error) {
	s := b.s
	b.res = Result{PathsTotal: b.paths}
	res := &b.res
	if len(s.order) == 0 {
		res.Complete = true
		res.Schedule = sim.Schedule{}
		return res, nil
	}

	b.arena.reset()
	b.table.reset(b.stride)
	b.open = b.open[:0]
	b.seq = 0
	s.alloc = 0

	const inf = int64(1)<<62 - 1
	bestCost := inf

	// Root: empty prefix, state key (zero mask, call 0, frontier 0).
	clear(b.mask)
	root := b.arena.alloc()
	rootKey := b.stateKey(b.rootKey, b.mask, 0, 0)
	clear(b.next)
	*b.arena.at(root) = bnbNode{
		f:      b.bnd(cursor{}, 0, b.next),
		parent: -1,
	}
	b.table.insert(hashKey(rootKey), rootKey)
	b.heapPush(root)

	done := ctx.Done()
	for len(b.open) > 0 {
		if cancelled(done) {
			b.fillCounters()
			return res, cancelErr(ctx)
		}
		// Pop phase: collect up to bnbBatch live nodes.
		popped := b.popped[:0]
		for len(popped) < bnbBatch && len(b.open) > 0 {
			idx := b.heapPop()
			n := b.arena.at(idx)
			if n.stop {
				if len(popped) == 0 {
					// Best-first on an admissible bound: a stop leaf popped
					// with nothing cheaper pending expansion is optimal.
					return b.finalize(idx), nil
				}
				// Nodes with a bound at or below the leaf's cost were popped
				// earlier in this round and are still unexpanded — one of
				// their descendants could beat the leaf. Re-queue it and
				// close the batch; it pops again once they have been
				// expanded.
				b.heapPush(idx)
				break
			}
			if n.f >= bestCost {
				res.BoundPruned++
				continue
			}
			popped = append(popped, idx)
		}
		if len(popped) == 0 {
			continue
		}

		// Expand and commit each popped node in pop order. Expanding reads
		// only the node's own chain of ancestors, and committing only
		// appends nodes and table entries and lowers bestCost, so the order
		// of the two steps within the batch does not matter.
		for _, idx := range popped {
			b.expand(idx)
			res.NodesExpanded++
			for ci := range b.kids {
				ch := &b.kids[ci]
				if ch.f >= bestCost {
					res.BoundPruned++
					continue
				}
				if b.arena.n >= s.budget {
					b.fillCounters()
					return res, ErrBudgetExhausted
				}
				if !ch.stop {
					key := b.keys[ci*b.stride : (ci+1)*b.stride]
					if b.table.insert(ch.hash, key) {
						res.TableHits++
						continue
					}
				}
				b.seq++
				kid := b.arena.alloc()
				n := b.arena.at(idx)
				*b.arena.at(kid) = bnbNode{
					cur:    ch.cur,
					g:      ch.g,
					f:      ch.f,
					span:   ch.span,
					seq:    b.seq,
					parent: idx,
					depth:  n.depth + 1,
					event:  ch.ev,
					stop:   ch.stop,
				}
				if ch.stop {
					// The leaf's prefix is its parent's; depth stays put so
					// schedule reconstruction walks the same chain.
					b.arena.at(kid).depth = n.depth
					if ch.g < bestCost {
						bestCost = ch.g
					}
				}
				b.heapPush(kid)
			}
		}
	}
	b.fillCounters()
	return res, fmt.Errorf("astar: BnB exhausted the open list without a complete schedule (internal error)")
}

// expand scores one popped node into b.kids and b.keys: its children (with
// bounds and state keys) plus, for a complete prefix, a stop leaf with the
// exact cost.
func (b *BnB) expand(idx int32) {
	s := b.s
	n := b.arena.at(idx)
	b.loadNode(idx)
	b.kids = b.kids[:0]
	b.keys = b.keys[:0]

	missing := 0
	for _, f := range s.order {
		if b.next[f] == 0 {
			missing++
		}
	}
	for _, f := range s.order {
		for l := b.next[f]; int(l) < s.levels; l++ {
			ev := sim.CompileEvent{Func: f, Level: l}
			ccur, _ := b.pe.Advance(n.cur, ev)
			cspan := n.span + s.compile[int(f)*s.levels+int(l)]
			saved := b.next[f]
			b.next[f] = l + 1
			fb := b.bnd(ccur, cspan, b.next)
			b.next[f] = saved

			ke := keyFrontier(ccur, cspan, len(s.tr.Calls))
			mb := b.mask[f]
			b.mask[f] = mb | 1<<uint(l)
			base := len(b.keys)
			b.keys = append(b.keys, b.mask...)
			b.keys = append(b.keys,
				byte(ccur.I), byte(ccur.I>>8), byte(ccur.I>>16), byte(ccur.I>>24),
				byte(ke), byte(ke>>8), byte(ke>>16), byte(ke>>24),
				byte(ke>>32), byte(ke>>40), byte(ke>>48), byte(ke>>56))
			b.mask[f] = mb
			h := hashKey(b.keys[base : base+b.stride])
			b.kids = append(b.kids, bnbChild{
				cur:  ccur,
				g:    ccur.Bubbles + ccur.Extra,
				f:    fb,
				span: cspan,
				hash: h,
				ev:   ev,
			})
		}
	}
	if missing == 0 && !n.stop {
		full, mspan := b.pe.Finish(n.cur)
		// Stop leaves never enter the transposition table: a complete node
		// and its own stop leaf share a state key, and the parent's entry
		// must not prune the leaf that proves its cost.
		// No key is appended for the leaf: it is always the last child, so
		// the earlier children's key offsets are unaffected, and the commit
		// path never consults a stop child's key.
		b.kids = append(b.kids, bnbChild{
			cur:  n.cur,
			g:    full,
			f:    full,
			span: mspan,
			stop: true,
		})
	}
}

// loadNode rebuilds a node's prefix, per-function next levels, and compiled
// mask into the expansion scratch, then loads the prefix into its evaluator.
func (b *BnB) loadNode(idx int32) {
	n := b.arena.at(idx)
	clear(b.next)
	clear(b.mask)
	depth := int(n.depth)
	if cap(b.prefix) < depth {
		b.prefix = make(sim.Schedule, depth)
	}
	b.prefix = b.prefix[:depth]
	for v := idx; v != -1; {
		vn := b.arena.at(v)
		if vn.parent == -1 {
			break
		}
		b.prefix[vn.depth-1] = vn.event
		b.mask[vn.event.Func] |= 1 << uint(vn.event.Level)
		if l := vn.event.Level + 1; l > b.next[vn.event.Func] {
			b.next[vn.event.Func] = l
		}
		v = vn.parent
	}
	b.pe.Load(b.prefix)
}

// keyFrontier delegates to the shared ocsp.KeyFrontier: the frontier
// component of a child's state key (see its doc for why the all-committed
// tail keys on ExecT). FuzzStateKey's seed corpus pins the case.
func keyFrontier(cur cursor, span int64, ncalls int) int64 {
	return ocsp.KeyFrontier(cur, span, ncalls)
}

// stateKey writes (mask, call index, frontier) into dst, which must be
// stride bytes.
func (b *BnB) stateKey(dst, mask []byte, i int, e int64) []byte {
	n := copy(dst, mask)
	dst[n] = byte(i)
	dst[n+1] = byte(i >> 8)
	dst[n+2] = byte(i >> 16)
	dst[n+3] = byte(i >> 24)
	for k := 0; k < 8; k++ {
		dst[n+4+k] = byte(e >> (8 * k))
	}
	return dst
}

// finalize reconstructs the result from the popped stop leaf.
func (b *BnB) finalize(leaf int32) *Result {
	n := b.arena.at(leaf)
	depth := int(n.depth)
	if cap(b.sched) < depth {
		b.sched = make(sim.Schedule, depth)
	}
	b.sched = b.sched[:depth]
	for v := n.parent; v != -1; {
		vn := b.arena.at(v)
		if vn.parent == -1 {
			break
		}
		b.sched[vn.depth-1] = vn.event
		v = vn.parent
	}
	res := &b.res
	res.Schedule = b.sched
	res.MakeSpan = n.span
	res.Cost = n.g
	res.Complete = true
	b.fillCounters()
	return res
}

// fillCounters copies the run's footprint counters into the result and
// reports them to the process-wide metrics.
func (b *BnB) fillCounters() {
	res := &b.res
	res.NodesAllocated = b.arena.n
	res.StatesStored = b.table.states()
	obs.Default().SearchRun(int64(res.NodesExpanded), int64(res.NodesAllocated),
		int64(res.TableHits), int64(res.BoundPruned))
}

// heapPush and heapPop maintain the open list: a min-heap of arena indexes
// ordered by (f, seq), hand-rolled so pushes never box through an interface.
func (b *BnB) heapPush(idx int32) {
	b.open = append(b.open, idx)
	i := len(b.open) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !b.heapLess(b.open[i], b.open[p]) {
			break
		}
		b.open[i], b.open[p] = b.open[p], b.open[i]
		i = p
	}
}

func (b *BnB) heapPop() int32 {
	top := b.open[0]
	last := len(b.open) - 1
	b.open[0] = b.open[last]
	b.open = b.open[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && b.heapLess(b.open[l], b.open[smallest]) {
			smallest = l
		}
		if r < last && b.heapLess(b.open[r], b.open[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		b.open[i], b.open[smallest] = b.open[smallest], b.open[i]
		i = smallest
	}
	return top
}

func (b *BnB) heapLess(a, c int32) bool {
	na, nc := b.arena.at(a), b.arena.at(c)
	if na.f != nc.f {
		return na.f < nc.f
	}
	return na.seq < nc.seq
}
