package served

import (
	"container/list"
	"crypto/sha256"
	"strconv"
	"sync"
)

// frontCache answers byte-identical repeat /schedule requests before
// the spec is parsed. It is keyed by SHA-256 of the raw request body.
// An entry holds the JSON body of an earlier verified LRU hit up to
// (but not including) the elapsedMicros value, which is the
// response's final field, together with the class fingerprint and the
// generation of the LRU entry that hit was served from. The handler
// serves an entry only while service.Rehit finds that same LRU entry
// resident: equal bytes parse to the same model, so the full path
// would then produce this body byte for byte. A failed probe deletes
// the entry rather than refreshing it, and holding the generation
// instead of the entry itself keeps evicted LRU entries collectable.
type frontCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List                          // front = most recent; values are *frontItem
	items map[[sha256.Size]byte]*list.Element //
}

type frontItem struct {
	key    [sha256.Size]byte // SHA-256 of the request body
	fp     string            // the class fingerprint
	gen    uint64            // the LRU entry generation the body was served from
	prefix []byte            // the body up to the elapsedMicros value
}

// newFrontCache returns a cache holding up to capacity bodies
// (capacity ≤ 0 holds none; the handler then skips the probe).
func newFrontCache(capacity int) *frontCache {
	return &frontCache{cap: capacity, order: list.New(), items: make(map[[sha256.Size]byte]*list.Element)}
}

// enabled reports whether the cache can hold anything.
func (c *frontCache) enabled() bool { return c.cap > 0 }

// get returns the entry for key, marking it most recently used, or
// nil.
func (c *frontCache) get(key [sha256.Size]byte) *frontItem {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*frontItem)
}

// put stores an entry, replacing any under the same key and evicting
// the least recently served body at capacity.
func (c *frontCache) put(it *frontItem) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[it.key]; ok {
		el.Value = it
		c.order.MoveToFront(el)
		return
	}
	c.items[it.key] = c.order.PushFront(it)
	for c.order.Len() > c.cap {
		back := c.order.Back()
		delete(c.items, back.Value.(*frontItem).key)
		c.order.Remove(back)
	}
}

// remove deletes it, unless a concurrent put has already replaced it.
func (c *frontCache) remove(it *frontItem) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[it.key]; ok && el.Value.(*frontItem) == it {
		delete(c.items, it.key)
		c.order.Remove(el)
	}
}

// len returns the number of cached bodies.
func (c *frontCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// appendElapsed completes a cached prefix into a full response body:
// the prefix ends right where the elapsedMicros value goes, so the
// body is prefix + digits + "}\n".
func appendElapsed(prefix []byte, elapsedUS int64) []byte {
	out := make([]byte, 0, len(prefix)+24)
	out = append(out, prefix...)
	out = strconv.AppendInt(out, elapsedUS, 10)
	return append(out, '}', '\n')
}
