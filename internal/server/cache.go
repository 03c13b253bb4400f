package server

import (
	"container/list"
	"hash/fnv"
	"sync"
)

// cacheEntry is one in-flight or completed response. Followers wait on ready;
// after it closes, exactly one of body/err is set.
type cacheEntry struct {
	ready chan struct{}
	body  []byte
	err   error
}

// beginState classifies what begin found for a key: the caller leads a fresh
// computation, coalesces onto another caller's in-flight one, or is served a
// completed entry. The distinction travels to the client in the X-Cache
// header (miss/coalesced/hit) — a coalesced follower got deduplication, not
// a cache hit, and reporting "hit" for it would overstate what the cache
// held.
type beginState int

const (
	beginLead beginState = iota
	beginCoalesced
	beginHit
)

// String renders the state as its X-Cache header value.
func (s beginState) String() string {
	switch s {
	case beginCoalesced:
		return "coalesced"
	case beginHit:
		return "hit"
	default:
		return "miss"
	}
}

// shardedCache is an LRU response cache with single-flight semantics, split
// into independently locked shards by an FNV-64a hash of the key so
// concurrent requests for different keys never serialize on one mutex.
//
// Single-flight holds at ANY capacity: an in-flight entry is pinned — the
// eviction scan skips it — so a burst of distinct keys can never evict a
// live leader and let a concurrent duplicate elect a second one. (The
// previous single-mutex implementation evicted purely by recency, and under
// cache pressure an in-flight leader at the LRU tail could be evicted; its
// duplicates then recomputed the same work, silently breaking the "exactly
// one compute per fingerprint" contract the concurrency tests rely on.)
// Pinned entries may transiently push a shard past its capacity; complete()
// trims back down as leaders finish.
type shardedCache struct {
	shards []cacheShard
	mask   uint64
}

// cacheShard is one independently locked LRU partition.
type cacheShard struct {
	mu      sync.Mutex
	cap     int
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // value: *lruItem

	// stats, guarded by mu: completed-entry hits, in-flight coalesces,
	// leader elections, completed-entry evictions.
	hits      int64
	coalesced int64
	leads     int64
	evictions int64
}

type lruItem struct {
	key   string
	entry *cacheEntry
	// done flips when the leader completes; only done items are
	// eviction-eligible. An in-flight item is pinned: evicting it would
	// detach the leader from the key and break single-flight.
	done bool
}

// maxCacheShards bounds the shard count; small caches use fewer shards so
// every shard keeps at least one slot.
const maxCacheShards = 16

// newShardedCache returns a cache holding at most capacity entries across
// power-of-two shards. A zero or negative capacity disables caching
// entirely: begin always elects a leader and complete drops the result.
func newShardedCache(capacity int) *shardedCache {
	if capacity <= 0 {
		return &shardedCache{}
	}
	n := 1
	for n < maxCacheShards && 2*n <= capacity {
		n *= 2
	}
	c := &shardedCache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	// Ceiling split so the shards sum to at least the requested capacity.
	per := (capacity + n - 1) / n
	for i := range c.shards {
		c.shards[i] = cacheShard{cap: per, order: list.New(), entries: make(map[string]*list.Element)}
	}
	return c
}

// shardFor maps a key to its shard (nil when caching is disabled).
func (c *shardedCache) shardFor(key string) *cacheShard {
	if len(c.shards) == 0 {
		return nil
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return &c.shards[h.Sum64()&c.mask]
}

// shardIndex reports which shard holds key (-1 when caching is disabled),
// for per-shard observability.
func (c *shardedCache) shardIndex(key string) int {
	if len(c.shards) == 0 {
		return -1
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() & c.mask)
}

// begin looks up key. It returns the entry to wait on and how the caller
// got it: a leader must finish the entry with complete(); followers wait for
// the entry's ready channel and then read body/err.
func (c *shardedCache) begin(key string) (*cacheEntry, beginState) {
	sh := c.shardFor(key)
	if sh == nil {
		return &cacheEntry{ready: make(chan struct{})}, beginLead
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[key]; ok {
		sh.order.MoveToFront(el)
		if el.Value.(*lruItem).done {
			sh.hits++
			return el.Value.(*lruItem).entry, beginHit
		}
		sh.coalesced++
		return el.Value.(*lruItem).entry, beginCoalesced
	}
	e := &cacheEntry{ready: make(chan struct{})}
	el := sh.order.PushFront(&lruItem{key: key, entry: e})
	sh.entries[key] = el
	sh.leads++
	sh.trimLocked()
	return e, beginLead
}

// trimLocked evicts completed entries from the LRU tail until the shard is
// within capacity or only pinned (in-flight) entries remain. Callers hold
// sh.mu.
func (sh *cacheShard) trimLocked() {
	for el := sh.order.Back(); el != nil && sh.order.Len() > sh.cap; {
		prev := el.Prev()
		if it := el.Value.(*lruItem); it.done {
			sh.order.Remove(el)
			delete(sh.entries, it.key)
			sh.evictions++
		}
		el = prev
	}
}

// complete publishes the leader's result and wakes all waiters. On error the
// entry is evicted (waiters already holding it still observe the error);
// on success it becomes eviction-eligible and the shard trims back within
// capacity. The shard is updated before ready closes, so a woken waiter that
// asks for the same key again finds a completed entry (a hit) or, after an
// error, none — never the in-flight entry it just waited on.
func (c *shardedCache) complete(key string, e *cacheEntry, body []byte, err error) {
	e.body, e.err = body, err
	defer close(e.ready)
	sh := c.shardFor(key)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[key]
	if !ok || el.Value.(*lruItem).entry != e {
		return
	}
	if err != nil {
		sh.order.Remove(el)
		delete(sh.entries, key)
		return
	}
	el.Value.(*lruItem).done = true
	sh.trimLocked()
}

// len reports entries currently held, in-flight ones included.
func (c *shardedCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.order.Len()
		sh.mu.Unlock()
	}
	return n
}

// lenCompleted reports only completed (actually cached) entries — the number
// len historically conflated with in-flight leaders.
func (c *shardedCache) lenCompleted() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.order.Front(); el != nil; el = el.Next() {
			if el.Value.(*lruItem).done {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// cacheShardStats is one shard's counter snapshot.
type cacheShardStats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Coalesced int64 `json:"coalesced"`
	Leads     int64 `json:"leads"`
	Evictions int64 `json:"evictions"`
}

// stats snapshots every shard's counters (empty when caching is disabled).
func (c *shardedCache) stats() []cacheShardStats {
	out := make([]cacheShardStats, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		out[i] = cacheShardStats{
			Entries:   sh.order.Len(),
			Hits:      sh.hits,
			Coalesced: sh.coalesced,
			Leads:     sh.leads,
			Evictions: sh.evictions,
		}
		sh.mu.Unlock()
	}
	return out
}
