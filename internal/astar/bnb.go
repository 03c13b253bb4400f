package astar

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
//   - frontiers are expanded in fixed-size batches whose scoring fans out
//     over worker goroutines with work-stealing index spans, while every
//     search decision (pops, prunes, table writes, budget accounting) happens
//     serially in batch order — so the result is bit-identical for any
//     worker count.
//
// Memory is pooled: nodes live in slab arenas addressed by index, the open
// list is a slice of those indexes, and the table keeps its storage across
// runs — a warm BnB on the serial path does not allocate.

// BnBOptions configures a branch-and-bound search.
type BnBOptions struct {
	// MaxNodes bounds the number of arena nodes ever allocated (the memory
	// proxy, same currency as Options.MaxNodes). Zero means DefaultMaxNodes.
	MaxNodes int
	// Workers bounds the goroutines scoring a batch (1 means serial, N > 1
	// means N goroutines). Zero means adaptive dispatch: the process-wide
	// EWMA table in dispatch.go picks serial or GOMAXPROCS parallel per
	// instance-size bucket from recently observed per-node costs. The result
	// is bit-identical for every worker count, so dispatch never changes the
	// answer — only the wall time.
	Workers int
	// TightBound switches pruning from the historical ocsp.Tables.CostBound
	// to the strictly-dominating prefix-chain CostBoundTight (the exact
	// solver's bound). Both are admissible, so the optimum is unchanged —
	// only node counts shrink; the default stays off because the §6.2.5
	// goldens pin the historical counters.
	TightBound bool
}

// bnbBatch is the number of nodes popped and expanded per round. It is a
// constant — never derived from Workers — because the incumbent and the
// transposition table are only updated between batches: the batch boundary
// is part of the search's definition, so it must not move with parallelism.
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

// bnbChild is a scored candidate child produced by the parallel phase; the
// serial commit decides whether it becomes a node.
type bnbChild struct {
	cur  cursor
	g    int64 // committed cost (exact total when stop)
	f    int64
	span int64 // child compile span (make-span when stop)
	e    int64 // effective frontier max(cur.ExecT, span)
	hash uint64
	ev   sim.CompileEvent
	stop bool
}

// bnbSlot holds one batch slot: the popped node and its expansion. kids and
// keys are reused across batches.
type bnbSlot struct {
	node int32
	kids []bnbChild
	keys []byte // kids' state keys, table stride apiece
}

// bnbWorker is per-goroutine scratch for the scoring phase.
type bnbWorker struct {
	pe     *prefixEval
	prefix sim.Schedule
	next   []profile.Level
	mask   []byte
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
	s       *searcher
	bnd     func(cursor, int64, []profile.Level) int64
	workers int
	stride  int
	// autoBucket is the dispatch table bucket when Workers=0 chose the mode
	// adaptively, or -1 for an explicit worker count. Auto runs feed their
	// per-node cost back to the dispatcher.
	autoBucket int

	arena bnbArena
	table transTable
	open  []int32 // min-heap of arena indexes on (f, seq)
	slots [bnbBatch]bnbSlot
	ws    []bnbWorker
	spans []atomic.Uint64

	// rootMask/rootKey are scratch for the root's state key; popped is the
	// batch of live popped nodes.
	rootMask []byte
	rootKey  []byte
	popped   []int32

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
	workers := opts.Workers
	autoBucket := -1
	if workers == 0 {
		autoBucket = dispatchBucketFor(len(s.order))
		workers = searchDispatcher.choose(autoBucket)
	}
	if workers < 1 {
		return nil, fmt.Errorf("astar: BnB workers must be >= 1, got %d", opts.Workers)
	}
	nf := p.NumFuncs()
	b := &BnB{
		s:          s,
		workers:    workers,
		autoBucket: autoBucket,
		bnd:        s.tab.CostBound,
		stride:     nf + 12,
		open:       make([]int32, 0, heapCapFor(s.budget)),
		ws:         make([]bnbWorker, workers),
		spans:      make([]atomic.Uint64, workers),
		rootMask:   make([]byte, nf),
		rootKey:    make([]byte, nf+12),
		popped:     make([]int32, 0, bnbBatch),
		paths:      totalPaths(len(s.order), p.Levels),
	}
	if opts.TightBound {
		b.bnd = s.tab.CostBoundTight
	}
	for i := range b.ws {
		b.ws[i] = bnbWorker{
			pe:   s.newPrefixEval(),
			next: make([]profile.Level, nf),
			mask: make([]byte, nf),
		}
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

// RunContext is Run with cooperative cancellation, polled once per expansion
// batch (bnbBatch pops). Parallel scoring never outlives a batch, so a done
// context aborts between batches with ErrCancelled, counters filled, and no
// schedule — the serial commit discipline is preserved, and an un-cancelled
// run is bit-identical to Run. A warm cancellable run still allocates
// nothing; see TestBnBWarmZeroAllocCancellable.
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
	var autoStart time.Time
	if b.autoBucket >= 0 {
		autoStart = time.Now()
	}

	const inf = int64(1)<<62 - 1
	bestCost := inf

	// Root: empty prefix, state key (zero mask, call 0, frontier 0).
	clear(b.rootMask)
	root := b.arena.alloc()
	rootKey := b.stateKey(b.rootKey, b.rootMask, 0, 0)
	w0 := &b.ws[0]
	clear(w0.next)
	*b.arena.at(root) = bnbNode{
		f:      b.bnd(cursor{}, 0, w0.next),
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
		// Serial pop phase: collect up to bnbBatch live nodes.
		popped := b.popped[:0]
		for len(popped) < bnbBatch && len(b.open) > 0 {
			idx := b.heapPop()
			n := b.arena.at(idx)
			if n.stop {
				if len(popped) == 0 {
					// Best-first on an admissible bound: a stop leaf popped
					// with nothing cheaper pending expansion is optimal.
					fres := b.finalize(idx)
					if b.autoBucket >= 0 {
						searchDispatcher.observe(b.autoBucket, b.workers > 1,
							time.Since(autoStart), fres.NodesExpanded)
					}
					return fres, nil
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

		// Parallel phase: score every slot. Pure with respect to the shared
		// search state — workers read the arena and the immutable searcher,
		// and write only their own slot.
		for k, idx := range popped {
			b.slots[k].node = idx
		}
		if w := min(b.workers, len(popped)); w <= 1 {
			for k := range popped {
				b.expandSlot(&b.ws[0], &b.slots[k])
			}
		} else {
			b.expandParallel(len(popped), w)
		}

		// Serial commit phase: replay slots in pop order, applying budget,
		// bound, and dominance decisions exactly as a serial search would.
		for k := range popped {
			sl := &b.slots[k]
			res.NodesExpanded++
			for ci := range sl.kids {
				ch := &sl.kids[ci]
				if ch.f >= bestCost {
					res.BoundPruned++
					continue
				}
				if b.arena.n >= s.budget {
					b.fillCounters()
					return res, ErrBudgetExhausted
				}
				if !ch.stop {
					key := sl.keys[ci*b.stride : (ci+1)*b.stride]
					if b.table.insert(ch.hash, key) {
						res.TableHits++
						continue
					}
				}
				b.seq++
				idx := b.arena.alloc()
				parent := sl.node
				n := b.arena.at(parent)
				*b.arena.at(idx) = bnbNode{
					cur:    ch.cur,
					g:      ch.g,
					f:      ch.f,
					span:   ch.span,
					seq:    b.seq,
					parent: parent,
					depth:  n.depth + 1,
					event:  ch.ev,
					stop:   ch.stop,
				}
				if ch.stop {
					// The leaf's prefix is its parent's; depth stays put so
					// schedule reconstruction walks the same chain.
					b.arena.at(idx).depth = n.depth
					if ch.g < bestCost {
						bestCost = ch.g
					}
				}
				b.heapPush(idx)
			}
		}
	}
	b.fillCounters()
	return res, fmt.Errorf("astar: BnB exhausted the open list without a complete schedule (internal error)")
}

// expandSlot scores one popped node: its children (with bounds and state
// keys) plus, for a complete prefix, a stop leaf with the exact cost.
func (b *BnB) expandSlot(w *bnbWorker, sl *bnbSlot) {
	s := b.s
	n := b.arena.at(sl.node)
	b.loadNode(w, sl.node)
	sl.kids = sl.kids[:0]
	sl.keys = sl.keys[:0]

	missing := 0
	for _, f := range s.order {
		if w.next[f] == 0 {
			missing++
		}
	}
	for _, f := range s.order {
		for l := w.next[f]; int(l) < s.levels; l++ {
			ev := sim.CompileEvent{Func: f, Level: l}
			ccur, _ := w.pe.Advance(n.cur, ev)
			cspan := n.span + s.compile[int(f)*s.levels+int(l)]
			saved := w.next[f]
			w.next[f] = l + 1
			fb := b.bnd(ccur, cspan, w.next)
			w.next[f] = saved

			e := ccur.ExecT
			if cspan > e {
				e = cspan
			}
			ke := keyFrontier(ccur, cspan, len(s.tr.Calls))
			mb := w.mask[f]
			w.mask[f] = mb | 1<<uint(l)
			base := len(sl.keys)
			sl.keys = append(sl.keys, w.mask...)
			sl.keys = append(sl.keys,
				byte(ccur.I), byte(ccur.I>>8), byte(ccur.I>>16), byte(ccur.I>>24),
				byte(ke), byte(ke>>8), byte(ke>>16), byte(ke>>24),
				byte(ke>>32), byte(ke>>40), byte(ke>>48), byte(ke>>56))
			w.mask[f] = mb
			h := hashKey(sl.keys[base : base+b.stride])
			sl.kids = append(sl.kids, bnbChild{
				cur:  ccur,
				g:    ccur.Bubbles + ccur.Extra,
				f:    fb,
				span: cspan,
				e:    e,
				hash: h,
				ev:   ev,
			})
		}
	}
	if missing == 0 && !n.stop {
		full, mspan := w.pe.Finish(n.cur)
		// Stop leaves never enter the transposition table: a complete node
		// and its own stop leaf share a state key, and the parent's entry
		// must not prune the leaf that proves its cost.
		// No key is appended for the leaf: it is always the last child, so
		// the earlier children's key offsets are unaffected, and the commit
		// path never consults a stop child's key.
		sl.kids = append(sl.kids, bnbChild{
			cur:  n.cur,
			g:    full,
			f:    full,
			span: mspan,
			stop: true,
		})
	}
}

// expandParallel fans count slots out over w workers. Each worker owns a
// contiguous index span packed into one atomic word (hi<<32 | lo); it claims
// from the front of its own span and, when empty, steals the upper half of
// another worker's. Both transitions only shrink a span — lo rises, hi falls
// — so a stale CAS can never resurrect a claimed slot, and a stolen range is
// processed privately. Slot writes are disjoint by construction.
func (b *BnB) expandParallel(count, w int) {
	for i := 0; i < w; i++ {
		lo := count * i / w
		hi := count * (i + 1) / w
		b.spans[i].Store(uint64(hi)<<32 | uint64(lo))
	}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			ws := &b.ws[me]
			for {
				if k, ok := spanClaim(&b.spans[me]); ok {
					b.expandSlot(ws, &b.slots[k])
					continue
				}
				lo, hi, ok := 0, 0, false
				for off := 1; off < w && !ok; off++ {
					lo, hi, ok = spanSteal(&b.spans[(me+off)%w])
				}
				if !ok {
					return
				}
				for k := lo; k < hi; k++ {
					b.expandSlot(ws, &b.slots[k])
				}
			}
		}(i)
	}
	wg.Wait()
}

// spanClaim takes the front index of a span.
func spanClaim(s *atomic.Uint64) (int, bool) {
	for {
		v := s.Load()
		lo, hi := uint32(v), uint32(v>>32)
		if lo >= hi {
			return 0, false
		}
		if s.CompareAndSwap(v, uint64(hi)<<32|uint64(lo+1)) {
			return int(lo), true
		}
	}
}

// spanSteal takes the upper half of a span with at least two pending slots.
func spanSteal(s *atomic.Uint64) (int, int, bool) {
	for {
		v := s.Load()
		lo, hi := uint32(v), uint32(v>>32)
		if hi-lo < 2 {
			return 0, 0, false
		}
		mid := hi - (hi-lo)/2
		if s.CompareAndSwap(v, uint64(mid)<<32|uint64(lo)) {
			return int(mid), int(hi), true
		}
	}
}

// loadNode rebuilds a node's prefix, per-function next levels, and compiled
// mask into the worker's scratch, then loads the prefix into its evaluator.
func (b *BnB) loadNode(w *bnbWorker, idx int32) {
	n := b.arena.at(idx)
	clear(w.next)
	clear(w.mask)
	depth := int(n.depth)
	if cap(w.prefix) < depth {
		w.prefix = make(sim.Schedule, depth)
	}
	w.prefix = w.prefix[:depth]
	for v := idx; v != -1; {
		vn := b.arena.at(v)
		if vn.parent == -1 {
			break
		}
		w.prefix[vn.depth-1] = vn.event
		w.mask[vn.event.Func] |= 1 << uint(vn.event.Level)
		if l := vn.event.Level + 1; l > w.next[vn.event.Func] {
			w.next[vn.event.Func] = l
		}
		v = vn.parent
	}
	w.pe.Load(w.prefix)
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
