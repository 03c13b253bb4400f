package trace

import (
	"fmt"
	"math/rand"
)

// Interleave flattens per-thread call sequences into one trace, preserving
// each thread's internal order and alternating stochastically in proportion
// to the threads' remaining work. This is the treatment the paper applies to
// its multithreaded benchmarks (hsqldb, lusearch): "for a multithreaded
// application, we still get a single sequence; the calls by different
// threads are put into the sequence in order of the profiler's output",
// which "roughly corresponds to the invocation timing order by those
// threads" (§6.1).
func Interleave(seed int64, threads ...*Trace) (*Trace, error) {
	lens := make([]int, len(threads))
	total := 0
	for i, t := range threads {
		lens[i] = t.Len()
		total += lens[i]
	}
	return InterleavePrefix(seed, lens, total, threads...)
}

// InterleavePrefix returns the first n calls of Interleave over threads whose
// full lengths are lens. The interleaving is driven by those full lengths, so
// the prefix is bit-identical to the full result's, but threads[i] need hold
// only its first min(n, lens[i]) calls: no thread can contribute more than n
// calls to an n-call prefix.
func InterleavePrefix(seed int64, lens []int, n int, threads ...*Trace) (*Trace, error) {
	if len(threads) == 0 {
		return nil, fmt.Errorf("trace: Interleave needs at least one thread")
	}
	if len(lens) != len(threads) {
		return nil, fmt.Errorf("trace: InterleavePrefix got %d lengths for %d threads", len(lens), len(threads))
	}
	if n < 0 {
		return nil, fmt.Errorf("trace: prefix length must be non-negative, got %d", n)
	}
	total := 0
	for i, t := range threads {
		if lens[i] < 0 || t.Len() < min(n, lens[i]) {
			return nil, fmt.Errorf("trace: thread %d of full length %d holds %d calls, too few for a %d-call prefix",
				i, lens[i], t.Len(), n)
		}
		total += lens[i]
	}
	n = min(n, total)
	name := threads[0].Name
	if len(threads) == 1 {
		return threads[0].Slice(0, n).Clone(), nil
	}
	rng := rand.New(rand.NewSource(seed))
	pos := make([]int, len(threads))
	remaining := append([]int(nil), lens...)
	out := &Trace{Name: name, Calls: make([]FuncID, 0, n)}
	for len(out.Calls) < n {
		// Pick a thread with probability proportional to its remaining
		// calls, so long threads do not all bunch at the end.
		r := rng.Intn(total)
		ti := 0
		for i, rem := range remaining {
			if r < rem {
				ti = i
				break
			}
			r -= rem
		}
		t := threads[ti]
		// Emit a small burst from the chosen thread: threads run in slices,
		// not single calls.
		burst := 1 + rng.Intn(8)
		for k := 0; k < burst && remaining[ti] > 0 && len(out.Calls) < n; k++ {
			out.Calls = append(out.Calls, t.Calls[pos[ti]])
			pos[ti]++
			remaining[ti]--
			total--
		}
	}
	return out, nil
}
