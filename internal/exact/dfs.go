package exact

import (
	"context"

	"repro/internal/ocsp"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The threshold DFS behind each decision probe: a complete depth-first
// branch-and-bound over the Fig. 4 tree, seeded with incumbent threshold+1.
// Three prunes keep it small:
//
//   - the prefix-chain bound ocsp.Tables.CostBoundTight against the evolving
//     incumbent (admissible, so nothing on the path to a strictly better
//     schedule is ever cut);
//   - a no-good table on the exact state key (compiled-level mask, cursor
//     index, effective frontier) — the same canonicalization as the BnB
//     transposition table, and for the same reason only EXACT matching is
//     sound (see internal/astar/transpose.go for the dominance
//     counterexample). A revisited state cannot improve on its first visit:
//     the subtree under a state is a function of the state alone, and the
//     incumbent only tightens over time, so anything the revisit could find
//     the first visit already found;
//   - the quiet-tail symmetry rule: when the previous event committed no
//     calls and the candidate event's span still ends at or before the
//     execution clock, the two events commit nothing in either order and
//     both orders reach the identical state — so only the canonical
//     (ascending pair-rank) order is expanded. The no-good table would catch
//     the duplicate anyway; the rule skips the Advance/hash work of ever
//     generating it.
//
// Children are scored once at generation and recursed best-bound-first (ties
// by pair rank, so the order is deterministic). On a feasible probe this
// makes the first dive nearly greedy — it reaches a close-to-optimal complete
// schedule immediately, and the tightened incumbent then prunes the rest of
// the tree the way BnB's best-first pop order does. The skip set of the
// symmetry rule depends only on the inbound edge, not on sibling visit order,
// so reordering preserves completeness.
//
// The walk carries its state down the stack instead of rebuilding it at
// every node:
//
//   - the evaluator (ocsp.Eval) holds the current prefix's version lists and
//     span; the DFS Pushes a child's event on descent and Pops it on return,
//     so a node costs one append, not a Load of its whole prefix;
//   - each expanded node builds its uncovered-function chain once
//     (ocsp.Chain), and every child's CostBoundTight is then O(1). A child
//     whose ChildFloor — the chain term, or the node's own frontier, neither
//     needing the child's cursor — already reaches the incumbent is pruned
//     before Advance evaluates it;
//   - the compiled-level mask is kept packed (ocsp.KeyLayout) and updated one
//     bit per descent. Each live child's packed key and hash are computed at
//     generation, and its table slot is touched in one batch with its
//     siblings', so the cache misses of the probes overlap;
//   - the parent's loop visits each child (budget, cancellation poll, table
//     probe) before descending, so a revisit — most visits — costs no Push,
//     Pop, mask update or call.
//
// A child whose bound already reaches the incumbent at generation is only
// counted, never stored: sorted best-bound-first it would come after every
// live sibling, and the incumbent only falls, so the visit loop would prune
// it last anyway. The traversal, and every counter, is the one a DFS that
// rebuilt each node from scratch gives (TestGoldenAStarExact pins them).
const cancelStride = 256

// childK is one scored candidate child.
type childK struct {
	cur   ocsp.Cursor
	bound int64
	rank  int32
	quiet bool
	f     trace.FuncID
	l     profile.Level
}

// kidFrame is one depth's child scratch, kept across nodes and solves so
// warm solves never reallocate it: the live children in generation
// (pair-rank) order, their packed state keys and key hashes, and their visit
// order as indexes into kids.
type kidFrame struct {
	kids   []childK
	order  []int32
	hashes []uint64
	keys   []uint64 // child i's packed key at [i*w, (i+1)*w), w key words
}

// dfsProbe answers "does a completion with cost <= threshold exist?" by
// complete search, and — because the search is a full branch-and-bound under
// an admissible bound — returns the globally optimal schedule whenever the
// answer is yes. On success the schedule is left in s.best.
func (s *Solver) dfsProbe(ctx context.Context, threshold int64) (found bool, cost, span int64, err error) {
	tab := s.tab
	res := &s.res
	s.table.reset(s.key.Words())
	clear(s.next)
	clear(s.mask)
	prefix := s.prefix[:0]
	s.pe.Load(prefix)
	bestLocal := threshold + 1
	var bestSpan int64
	done := ctx.Done()
	w := s.key.Words()

	// rec expands the node its parent generated as nd, a state the
	// no-good table has just admitted (see visit).
	var rec func(nd *childK) error
	rec = func(nd *childK) error {
		// The evaluator holds this node's prefix (the parent pushed the
		// inbound event), and s.next and s.mask its compiled levels.
		cur, nspan := nd.cur, s.pe.Span()
		s.chain.Reset(s.next)
		if s.chain.Uncovered() == 0 {
			full, mspan := s.pe.Finish(cur)
			if full < bestLocal {
				bestLocal, bestSpan = full, mspan
				s.best = append(s.best[:0], prefix...)
				found = true
			}
		}
		res.NodesExpanded++

		// Generate and score every child against this node's evaluator state
		// and chain, then recurse best-bound-first. A child whose bound is
		// already at or past the incumbent is only counted: it would sort
		// after every child below the incumbent, and the incumbent only
		// falls, so the visit loop would prune it last.
		depth := len(prefix)
		if depth == len(s.frames) {
			// At most the depth's uncompiled pairs are children, so the
			// frame never grows.
			n := len(tab.Order)*tab.Levels - depth
			s.frames = append(s.frames, kidFrame{
				kids: make([]childK, 0, n), order: make([]int32, 0, n),
				hashes: make([]uint64, 0, n), keys: make([]uint64, 0, n*w),
			})
		}
		fr := &s.frames[depth]
		kids, hashes, keys, order := fr.kids[:0], fr.hashes[:0], fr.keys[:0], fr.order[:0]
		dead := 0
		for oi, f := range tab.Order {
			for l := s.next[f]; int(l) < tab.Levels; l++ {
				rank := oi*tab.Levels + int(l)
				cspan := nspan + tab.Compile[int(f)*tab.Levels+int(l)]
				if nd.quiet && rank < int(nd.rank) && cur.ExecT >= cspan {
					// Both this event and the previous one commit no calls
					// (every remaining call starts at or past ExecT >= the
					// final span), so swapping them reaches the identical
					// state; the ascending-rank order was generated from the
					// parent already.
					res.SymmetrySkipped++
					continue
				}
				if s.chain.ChildFloor(cur, cspan, f) >= bestLocal {
					dead++
					continue
				}
				ccur, _ := s.pe.Advance(cur, sim.CompileEvent{Func: f, Level: l})
				bound := s.chain.ChildBound(ccur, cspan, f)
				if bound >= bestLocal {
					dead++
					continue
				}
				keys = s.key.Append(keys, s.mask, ccur, cspan)
				ck := keys[len(keys)-w:]
				s.key.Set(ck, f, l)
				hashes = append(hashes, hashWords(ck))
				kids = append(kids, childK{
					cur: ccur, bound: bound,
					rank: int32(rank), quiet: ccur == cur, f: f, l: l,
				})
			}
		}
		// Most visits end at the table probe (a hit), a cache miss on a large
		// table. Touching every live child's slot in one tight loop lets those
		// misses overlap instead of paying them one visit at a time.
		s.table.touch(hashes)
		// Insertion sort of the indexes on (bound, rank): deterministic,
		// allocation-free, and the child lists are tiny (at most
		// pairs-per-instance entries). kids is in rank order, so a stable
		// sort on the bound alone breaks ties by rank.
		for i := range kids {
			k := int32(i)
			j := len(order)
			order = append(order, k)
			for ; j > 0 && kids[order[j-1]].bound > kids[k].bound; j-- {
				order[j] = order[j-1]
			}
			order[j] = k
		}
		for _, k := range order {
			ch := &kids[k]
			// Re-check against the incumbent: earlier siblings may have
			// tightened it past this child's generation-time bound.
			if ch.bound >= bestLocal {
				res.BoundPruned++
				continue
			}
			// Visit the child: most visits end here, at a state seen
			// before, without descending.
			if fresh, err := s.visit(ctx, done, keys[int(k)*w:int(k+1)*w], hashes[k]); !fresh {
				if err != nil {
					return err
				}
				continue
			}
			ev := sim.CompileEvent{Func: ch.f, Level: ch.l}
			prefix = append(prefix, ev)
			saved := s.next[ch.f]
			s.next[ch.f] = ch.l + 1
			s.key.Set(s.mask, ch.f, ch.l)
			s.pe.Push(ev)
			err := rec(ch)
			s.pe.Pop(ev)
			s.key.Unset(s.mask, ch.f, ch.l)
			s.next[ch.f] = saved
			prefix = prefix[:len(prefix)-1]
			if err != nil {
				return err
			}
		}
		res.BoundPruned += dead
		return nil
	}

	root := s.key.Append(s.keyBuf[:0], s.mask, ocsp.Cursor{}, 0)
	if _, err = s.visit(ctx, done, root, hashWords(root)); err == nil {
		err = rec(&childK{rank: -1})
	}
	s.prefix = prefix[:0]
	if stored := s.table.states(); stored > res.StatesStored {
		res.StatesStored = stored
	}
	if err != nil {
		return false, 0, 0, err
	}
	return found, bestLocal, bestSpan, nil
}

// visit counts a visit to the state with packed key key (hash
// hashWords(key)) against the node budget, polls for cancellation every
// cancelStride visits, and records the state in the no-good table. It
// reports whether the state is new; a revisited state is a table hit and
// is not expanded. No bound check here: the caller pruned on the node's
// bound (computed at generation from the identical state) against the same
// incumbent immediately before.
func (s *Solver) visit(ctx context.Context, done <-chan struct{}, key []uint64, hash uint64) (bool, error) {
	if s.alloc++; s.alloc > s.maxNodes {
		return false, ErrBudgetExhausted
	}
	if s.alloc%cancelStride == 0 && cancelled(done) {
		return false, cancelErr(ctx)
	}
	if s.table.insert(key, hash) {
		s.res.TableHits++
		return false, nil
	}
	return true, nil
}
