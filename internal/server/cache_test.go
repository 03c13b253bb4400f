package server

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCacheSingleFlightUnderEvictionPressure is the regression for the bug
// this cache rewrite fixes: with capacity 1 and two fingerprints interleaved
// across many concurrent duplicates, the old recency-only eviction would
// drop an in-flight leader's entry, a duplicate would elect a second leader,
// and the same work would compute twice. With in-flight entries pinned,
// exactly one compute per fingerprint must happen, and every waiter must see
// that compute's exact bytes. Run under -race (the full suite is).
func TestCacheSingleFlightUnderEvictionPressure(t *testing.T) {
	const (
		keys       = 2
		dupsPerKey = 64
	)
	c := newShardedCache(1)
	var computes [keys]atomic.Int64
	bodies := [keys][]byte{[]byte("body-0"), []byte("body-1")}

	// Every goroutine checks in after begin; leaders hold their computation
	// until all begins have landed, so every duplicate arrives while its
	// fingerprint is in flight — the exact window where the old recency-only
	// eviction would drop the leader's entry and let a second leader through.
	var begun sync.WaitGroup
	begun.Add(keys * dupsPerKey)
	var wg sync.WaitGroup
	got := make([][]byte, keys*dupsPerKey)
	for i := 0; i < keys*dupsPerKey; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := i % keys // interleave the two fingerprints
			key := fmt.Sprintf("fp-%d", k)
			e, state := c.begin(key)
			begun.Done()
			if state == beginLead {
				begun.Wait()
				computes[k].Add(1)
				c.complete(key, e, bodies[k], nil)
			}
			<-e.ready
			if e.err != nil {
				t.Errorf("waiter %d: unexpected error %v", i, e.err)
				return
			}
			got[i] = e.body
		}(i)
	}
	wg.Wait()

	for k := 0; k < keys; k++ {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("fingerprint %d computed %d times, want exactly 1", k, n)
		}
	}
	for i, b := range got {
		if want := bodies[i%keys]; !bytes.Equal(b, want) {
			t.Errorf("waiter %d got %q, want %q", i, b, want)
		}
	}
	if n := c.len(); n > 1 {
		t.Errorf("cap-1 cache settled at %d entries, want <= 1", n)
	}
}

// TestCacheInFlightPinnedAgainstEviction: a burst of distinct completed keys
// cannot evict a live leader — its entry survives until complete, and a
// duplicate arriving mid-flight coalesces instead of leading.
func TestCacheInFlightPinnedAgainstEviction(t *testing.T) {
	c := newShardedCache(1)
	leaderEntry, state := c.begin("leader")
	if state != beginLead {
		t.Fatalf("first begin = %v, want lead", state)
	}
	// Hammer the cache with distinct keys while the leader is in flight.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("filler-%d", i)
		e, st := c.begin(k)
		if st != beginLead {
			t.Fatalf("filler %d: state %v, want lead", i, st)
		}
		c.complete(k, e, []byte("filler"), nil)
	}
	e2, state2 := c.begin("leader")
	if state2 != beginCoalesced {
		t.Fatalf("duplicate of in-flight leader: state %v, want coalesced", state2)
	}
	if e2 != leaderEntry {
		t.Fatal("duplicate got a different entry than the in-flight leader")
	}
	c.complete("leader", leaderEntry, []byte("led"), nil)
	// After completion the entry is eviction-eligible like any other.
	if _, state3 := c.begin("leader"); state3 != beginHit {
		t.Fatalf("post-complete begin = %v, want hit", state3)
	}
}

// TestCacheBeginStates: the three states map to their X-Cache values and
// arise exactly when documented.
func TestCacheBeginStates(t *testing.T) {
	c := newShardedCache(8)
	e, st := c.begin("k")
	if st != beginLead || st.String() != "miss" {
		t.Fatalf("fresh key: %v (%q), want lead/miss", st, st)
	}
	if _, st2 := c.begin("k"); st2 != beginCoalesced || st2.String() != "coalesced" {
		t.Fatalf("in-flight key: %v, want coalesced", st2)
	}
	c.complete("k", e, []byte("x"), nil)
	if _, st3 := c.begin("k"); st3 != beginHit || st3.String() != "hit" {
		t.Fatalf("completed key: %v, want hit", st3)
	}
}

// TestCacheErroredEntryEvicted: a failed leader does not poison the key.
func TestCacheErroredEntryEvicted(t *testing.T) {
	c := newShardedCache(8)
	e, _ := c.begin("k")
	c.complete("k", e, nil, fmt.Errorf("boom"))
	if e.err == nil {
		t.Fatal("waiters holding the entry must still observe the error")
	}
	if _, st := c.begin("k"); st != beginLead {
		t.Fatalf("after an errored completion begin = %v, want a fresh leader", st)
	}
}

// TestCacheLenCountsInFlightSeparately: len includes in-flight leaders,
// lenCompleted only actually cached results — the distinction the old
// single-counter len() blurred.
func TestCacheLenCountsInFlightSeparately(t *testing.T) {
	c := newShardedCache(8)
	e1, _ := c.begin("a")
	if c.len() != 1 || c.lenCompleted() != 0 {
		t.Fatalf("in-flight: len=%d lenCompleted=%d, want 1/0", c.len(), c.lenCompleted())
	}
	c.complete("a", e1, []byte("x"), nil)
	if c.len() != 1 || c.lenCompleted() != 1 {
		t.Fatalf("completed: len=%d lenCompleted=%d, want 1/1", c.len(), c.lenCompleted())
	}
}

// TestCacheDisabled: non-positive capacity disables caching but keeps the
// single-flight entry contract per call.
func TestCacheDisabled(t *testing.T) {
	for _, cap := range []int{0, -1} {
		c := newShardedCache(cap)
		e, st := c.begin("k")
		if st != beginLead {
			t.Fatalf("cap %d: begin = %v, want lead", cap, st)
		}
		c.complete("k", e, []byte("x"), nil)
		if _, st2 := c.begin("k"); st2 != beginLead {
			t.Fatalf("cap %d: second begin = %v, want lead (nothing cached)", cap, st2)
		}
		if c.len() != 0 || c.lenCompleted() != 0 {
			t.Fatalf("cap %d: disabled cache holds entries", cap)
		}
	}
}

// TestCacheShardSizing: the shard count stays a power of two, never exceeds
// the capacity, and the per-shard capacities sum to at least the requested
// total.
func TestCacheShardSizing(t *testing.T) {
	for _, tc := range []struct{ cap, wantShards int }{
		{1, 1}, {2, 2}, {3, 2}, {4, 4}, {15, 8}, {16, 16}, {256, 16}, {1000, 16},
	} {
		c := newShardedCache(tc.cap)
		if len(c.shards) != tc.wantShards {
			t.Errorf("cap %d: %d shards, want %d", tc.cap, len(c.shards), tc.wantShards)
		}
		total := 0
		for i := range c.shards {
			total += c.shards[i].cap
		}
		if total < tc.cap {
			t.Errorf("cap %d: shard capacities sum to %d", tc.cap, total)
		}
	}
}

// TestCacheShardStats: the per-shard counters account for hits, coalesces,
// leads, and evictions, and every key maps to a stable shard.
func TestCacheShardStats(t *testing.T) {
	c := newShardedCache(64)
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("k-%d", i)
		if got, again := c.shardIndex(key), c.shardIndex(key); got != again || got < 0 || got >= len(c.shards) {
			t.Fatalf("shardIndex(%q) unstable or out of range: %d, %d", key, got, again)
		}
		e, _ := c.begin(key)
		c.complete(key, e, []byte("x"), nil)
		c.begin(key) // hit
	}
	var leads, hits int64
	for _, s := range c.stats() {
		leads += s.Leads
		hits += s.Hits
	}
	if leads != 32 || hits != 32 {
		t.Errorf("stats: leads=%d hits=%d, want 32/32", leads, hits)
	}
}

// TestCacheConcurrentMixedKeys: many goroutines over many keys with a small
// cache — no lost updates, no second leaders racing an in-flight one, all
// bodies consistent. Primarily a -race exercise for the sharded locking.
func TestCacheConcurrentMixedKeys(t *testing.T) {
	c := newShardedCache(4)
	const (
		keys    = 16
		workers = 8
		rounds  = 50
	)
	var inflight [keys]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (w + r) % keys
				key := fmt.Sprintf("k-%d", k)
				e, st := c.begin(key)
				if st == beginLead {
					if n := inflight[k].Add(1); n != 1 {
						t.Errorf("key %d: %d concurrent leaders", k, n)
					}
					inflight[k].Add(-1)
					c.complete(key, e, []byte(key), nil)
				}
				<-e.ready
				if !bytes.Equal(e.body, []byte(key)) {
					t.Errorf("key %d: body %q", k, e.body)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCacheCompletePublishesBeforeWake is the regression for a waiter woken
// by complete() and asking for the same key again before the shard recorded
// the completion: it was told "coalesced" onto an entry already done. Each
// round parks a follower on a fresh leader's entry, completes the entry from
// another goroutine, and re-begins the key from the follower the moment it
// wakes. A success must then be a hit every time; an error must have left
// the cache, so the re-begin leads. Run under -race (the full suite is).
func TestCacheCompletePublishesBeforeWake(t *testing.T) {
	const rounds = 2000
	c := newShardedCache(64)
	for i := 0; i < rounds; i++ {
		key := fmt.Sprintf("fp-%d", i)
		e, state := c.begin(key)
		if state != beginLead {
			t.Fatalf("round %d: first begin = %v, want lead", i, state)
		}
		w, state := c.begin(key)
		if state != beginCoalesced || w != e {
			t.Fatalf("round %d: second begin = %v, want coalesced on the leader's entry", i, state)
		}
		var err error
		if i%4 == 3 {
			err = fmt.Errorf("compute %d failed", i)
		}
		go c.complete(key, e, []byte("body"), err)
		<-w.ready
		again, state := c.begin(key)
		switch {
		case err == nil && state != beginHit:
			t.Fatalf("round %d: re-begin after success = %v, want hit", i, state)
		case err != nil && state != beginLead:
			t.Fatalf("round %d: re-begin after error = %v, want lead", i, state)
		case err != nil:
			c.complete(key, again, []byte("body"), nil)
		}
	}
}
