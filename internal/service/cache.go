package service

import (
	"container/list"
	"sync"
	"sync/atomic"

	"rtm/internal/sched"
)

// entry is one cached scheduling outcome in canonical form: the
// verdict plus, when feasible, the schedule with each slot as a
// canonical element index (-1 = idle). Storing canonical indices
// instead of names is what lets one entry serve every model in the
// fingerprint's isomorphism class — the hit path remaps the indices
// through the requester's own canonical element order.
//
// The entry additionally memoizes verified materializations: once a
// requester surface (identified by its request digest) has had the
// canonical slots remapped into its names and re-verified, repeat
// requests with the same digest are served the memoized schedule and
// report without running sched.FromIndices + sched.Check again. The
// memo can only ever hold results that passed verification, so the
// fast path serves nothing the slow path would not have served.
type entry struct {
	key      string
	decided  bool // false: the search budget ran out (never cached)
	feasible bool
	slots    []int  // nil unless feasible
	source   string // which pipeline stage produced the outcome
	gen      uint64 // stamped by addToShard under the shard lock; unique per shard

	memoCap int // ≤ 0 disables the verified-hit memo
	memoMu  sync.Mutex
	memo    map[string]*verified
}

// verified is one verified materialization of an entry for one
// requester surface. The schedule and report are shared with every
// repeat requester of that surface and must be treated as read-only.
type verified struct {
	schedule *sched.Schedule
	report   *sched.Report
}

// lookupVerified returns the memoized verified materialization for a
// request digest, or nil.
func (e *entry) lookupVerified(digest string) *verified {
	if e.memoCap <= 0 {
		return nil
	}
	e.memoMu.Lock()
	v := e.memo[digest]
	e.memoMu.Unlock()
	return v
}

// storeVerified memoizes a verified materialization, evicting an
// arbitrary victim at capacity (distinct surfaces per class are
// almost always ≪ cap; the memo is an accelerator, not a registry).
func (e *entry) storeVerified(digest string, v *verified) {
	if e.memoCap <= 0 {
		return
	}
	e.memoMu.Lock()
	if e.memo == nil {
		e.memo = make(map[string]*verified, e.memoCap)
	}
	if _, ok := e.memo[digest]; !ok && len(e.memo) >= e.memoCap {
		for k := range e.memo {
			delete(e.memo, k)
			break
		}
	}
	e.memo[digest] = v
	e.memoMu.Unlock()
}

// lruCache is a bounded LRU over canonical fingerprints. Not safe for
// concurrent use; each cache shard guards its own with the shard
// mutex. Its zero value with cap set is ready: the list's zero value
// is an empty list, and items is made on the first add (a nil map
// reads as empty), so a service that is built and dropped allocates
// nothing per shard.
type lruCache struct {
	cap   int
	order list.List                // front = most recent; values are *entry
	items map[string]*list.Element //
}

// get returns the entry for key (touching it) or nil.
func (c *lruCache) get(key string) *entry {
	el, ok := c.items[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry)
}

// peek returns the entry for key without touching it, or nil.
func (c *lruCache) peek(key string) *entry {
	if el, ok := c.items[key]; ok {
		return el.Value.(*entry)
	}
	return nil
}

// add inserts or refreshes an entry and reports how many entries were
// evicted to stay within capacity.
func (c *lruCache) add(e *entry) int {
	if el, ok := c.items[e.key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return 0
	}
	if c.items == nil {
		c.items = make(map[string]*list.Element)
	}
	c.items[e.key] = c.order.PushFront(e)
	evicted := 0
	for c.order.Len() > c.cap {
		back := c.order.Back()
		delete(c.items, back.Value.(*entry).key)
		c.order.Remove(back)
		evicted++
	}
	return evicted
}

// remove drops an entry (used when a hit fails re-verification, which
// would indicate a canonicalization defect; the service degrades to a
// fresh search rather than serving a wrong schedule).
func (c *lruCache) remove(key string) {
	if el, ok := c.items[key]; ok {
		delete(c.items, key)
		c.order.Remove(el)
	}
}

func (c *lruCache) len() int { return c.order.Len() }

// cacheShard is one shard of the serving state: a bounded LRU plus the
// single-flight table for the fingerprints that hash here, guarded by
// one mutex. The single-flight invariant is per fingerprint, and a
// fingerprint maps to exactly one shard, so the invariant survives
// sharding — while hits on different classes in different shards
// never contend on a lock.
type cacheShard struct {
	mu        sync.Mutex
	lru       lruCache
	flight    map[string]*call // made on the first miss
	gen       uint64           // last generation stamped on an entry entering this shard's LRU
	evictions atomic.Int64     // entries this shard displaced (summed into Metrics.Evictions too)
}

// shardedCache spreads the LRU + flight table over a power-of-two
// number of shards keyed by fingerprint hash.
type shardedCache struct {
	shards []cacheShard
}

// newShardedCache builds nshards shards (rounded up to a power of
// two) whose per-shard capacity is ceil(totalCap/nshards) — total
// capacity is totalCap rounded up to a multiple of the shard count.
func newShardedCache(totalCap, nshards int) *shardedCache {
	if nshards < 1 {
		nshards = 1
	}
	pow := 1
	for pow < nshards {
		pow <<= 1
	}
	per := (totalCap + pow - 1) / pow
	if per < 1 {
		per = 1
	}
	c := &shardedCache{shards: make([]cacheShard, pow)}
	for i := range c.shards {
		c.shards[i].lru.cap = per
	}
	return c
}

// shard returns the shard owning a fingerprint (FNV-1a over the key,
// masked by the power-of-two shard count).
func (c *shardedCache) shard(key string) *cacheShard {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return &c.shards[h&uint64(len(c.shards)-1)]
}

// len sums the resident entries across shards. Each shard is read
// under its own lock; the sum is a consistent total only when no
// concurrent mutation is in flight (like any sharded gauge).
func (c *shardedCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.len()
		sh.mu.Unlock()
	}
	return n
}

// evictionsByShard returns the per-shard eviction counters.
func (c *shardedCache) evictionsByShard() []int64 {
	out := make([]int64, len(c.shards))
	for i := range c.shards {
		out[i] = c.shards[i].evictions.Load()
	}
	return out
}
