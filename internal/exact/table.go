package exact

// nogoodTable is the per-probe visited-state set: open-addressed with linear
// probing over one contiguous []uint64. Slot i is the record
// slots[i*rec : (i+1)*rec] — the key's hash, then its ocsp.KeyLayout words —
// so a probe reads one record and compares whole words. reset keeps every
// grown allocation for the next probe, so a warm solver's probes do not touch
// the heap. It is the single-shard cousin of the BnB transposition table
// (internal/astar/transpose.go) — the DFS is single-threaded, so sharding
// would buy nothing.
type nogoodTable struct {
	rec   int      // words per slot: 1 + key words
	slots []uint64 // a hash of 0 marks an empty slot
	mask  uint64   // slot count - 1
	n     int
	sink  uint64 // keeps touch's loads alive
}

// nogoodMinSlots is the initial slot count (power of two).
const nogoodMinSlots = 1 << 10

// reset prepares the table for a probe over keys of the given word count,
// keeping previously grown storage when the width matches.
func (t *nogoodTable) reset(words int) {
	if t.rec != 1+words || len(t.slots) == 0 {
		t.rec = 1 + words
		t.slots = make([]uint64, nogoodMinSlots*t.rec)
		t.mask = nogoodMinSlots - 1
	} else {
		clear(t.slots)
	}
	t.n = 0
}

// states returns the number of distinct states stored.
func (t *nogoodTable) states() int { return t.n }

// touch loads the first slot each hash's probe will read, so the cache
// misses are under way, and overlap, before insert needs the slots. The
// table may grow in between; that costs the early loads, nothing else.
func (t *nogoodTable) touch(hashes []uint64) {
	var sink uint64
	for _, h := range hashes {
		sink += t.slots[int(h&t.mask)*t.rec]
	}
	t.sink += sink
}

// insert records key, whose hash is hashWords(key), and reports whether it
// was already present.
func (t *nogoodTable) insert(key []uint64, hash uint64) bool {
	if 4*(t.n+1) > 3*int(t.mask+1) {
		t.grow()
	}
	rec, mask := t.rec, t.mask
	for i := hash & mask; ; i = (i + 1) & mask {
		slot := t.slots[int(i)*rec : int(i+1)*rec]
		switch {
		case slot[0] == 0:
			slot[0] = hash
			for w, x := range key { // a word or two: a loop beats a memmove call
				slot[1+w] = x
			}
			t.n++
			return false
		case slot[0] == hash && wordsEqual(slot[1:], key):
			return true
		}
	}
}

// grow doubles the table, re-probing every occupied slot.
func (t *nogoodTable) grow() {
	old, rec := t.slots, t.rec
	n := 2 * int(t.mask+1)
	t.slots = make([]uint64, n*rec)
	t.mask = uint64(n - 1)
	mask := t.mask
	for j := 0; j < len(old); j += rec {
		h := old[j]
		if h == 0 {
			continue
		}
		for i := h & mask; ; i = (i + 1) & mask {
			if dst := t.slots[int(i)*rec : int(i+1)*rec]; dst[0] == 0 {
				for w, x := range old[j : j+rec] {
					dst[w] = x
				}
				break
			}
		}
	}
}

// hashWords mixes the key words (a multiply-rotate per word and the
// SplitMix64 finalizer, so the low bits that pick a slot depend on every
// key bit), with 0 remapped so it can serve as the empty-slot marker. Only
// slot positions depend on it: matching compares the whole key.
func hashWords(key []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range key {
		h ^= w * 0xbf58476d1ce4e5b9
		h = (h<<27 | h>>37) * 0x94d049bb133111eb
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	if h == 0 {
		h = 1
	}
	return h
}

// wordsEqual compares two keys of equal length.
func wordsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
