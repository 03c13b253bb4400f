package ocsp

import (
	"math/bits"

	"repro/internal/profile"
	"repro/internal/trace"
)

// KeyLayout packs a search state key — compiled-level mask, cursor index,
// key frontier (KeyFrontier) — into a fixed number of uint64 words, so a
// state table compares a few words instead of a byte slice. The fields sit
// back to back from bit 0:
//
//   - the mask, Levels bits per called function, in Order rank: function
//     Order[r] compiled at level l sets bit r*Levels+l. Functions outside the
//     trace never compile, so they take no bits;
//   - the cursor index, in bits.Len(calls) bits;
//   - the frontier, in bits.Len of an upper bound on any reachable frontier:
//     the span cannot pass the sum of every called function's compile times
//     (each pair compiles at most once), and each committed call starts no
//     later than max(ExecT, span) and runs at most its slowest level, so
//     ExecT cannot pass that span bound plus the sum of every call's slowest
//     execution time.
//
// Each field holds its value exactly, so two packed keys are equal exactly
// when the (mask, cursor index, frontier) triples are — the same states the
// BnB transposition table's byte keys tell apart (TestKeyLayoutMatchesBytes).
type KeyLayout struct {
	levels  int
	rank    []int32 // rank[f] is f's index in Order; -1 off the trace
	calls   int
	curAt   uint // first bit of the cursor index
	frontAt uint // first bit of the frontier
	words   int
}

// NewKeyLayout sizes the key fields for the instance.
func (t *Tables) NewKeyLayout() *KeyLayout {
	k := &KeyLayout{
		levels: t.Levels,
		rank:   make([]int32, t.P.NumFuncs()),
		calls:  t.Tr.Len(),
	}
	for f := range k.rank {
		k.rank[f] = -1
	}
	var spanMax int64
	for r, f := range t.Order {
		k.rank[f] = int32(r)
		for l := 0; l < t.Levels; l++ {
			spanMax = satAdd(spanMax, t.Compile[int(f)*t.Levels+l])
		}
	}
	frontMax := spanMax
	for _, f := range t.Tr.Calls {
		var slowest int64
		for l := 0; l < t.Levels; l++ {
			slowest = max(slowest, t.Exec[int(f)*t.Levels+l])
		}
		frontMax = satAdd(frontMax, slowest)
	}
	k.curAt = uint(len(t.Order) * t.Levels)
	k.frontAt = k.curAt + uint(bits.Len(uint(k.calls)))
	k.words = int((k.frontAt + uint(bits.Len64(uint64(frontMax))) + 63) / 64)
	return k
}

// satAdd adds two non-negative times, saturating at the int64 maximum so an
// absurd instance widens the frontier field to 64 bits instead of wrapping.
func satAdd(a, b int64) int64 {
	if s := a + b; s >= a {
		return s
	}
	return 1<<63 - 1
}

// Words returns the packed key length in words.
func (k *KeyLayout) Words() int { return k.words }

// Set records f compiled at level l in mask (Words() long).
func (k *KeyLayout) Set(mask []uint64, f trace.FuncID, l profile.Level) {
	b := uint(int(k.rank[f])*k.levels + int(l))
	mask[b/64] |= 1 << (b % 64)
}

// Unset undoes Set.
func (k *KeyLayout) Unset(mask []uint64, f trace.FuncID, l profile.Level) {
	b := uint(int(k.rank[f])*k.levels + int(l))
	mask[b/64] &^= 1 << (b % 64)
}

// Append appends to dst the key of the state with compiled-level mask mask
// (built by Set, Words() long), cursor cur and compile span span, and
// returns the extended slice; the key is its last Words() words.
func (k *KeyLayout) Append(dst, mask []uint64, cur Cursor, span int64) []uint64 {
	for _, w := range mask { // a word or two: a loop beats a memmove call
		dst = append(dst, w)
	}
	key := dst[len(dst)-len(mask):]
	putBits(key, k.curAt, uint64(cur.I))
	putBits(key, k.frontAt, uint64(KeyFrontier(cur, span, k.calls)))
	return dst
}

// putBits ORs v into w starting at bit at; v may straddle two words.
func putBits(w []uint64, at uint, v uint64) {
	if v == 0 {
		return // also keeps a zero-width field at the key's end in range
	}
	i, off := at/64, at%64
	w[i] |= v << off
	if off != 0 && v>>(64-off) != 0 {
		w[i+1] |= v >> (64 - off)
	}
}
