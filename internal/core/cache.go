package core

import (
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
)

// lookupCache is a bounded, TTL'd cache of successful anonymous-lookup
// results, keyed by target identifier. A hit returns the owner and its
// signed successor-list evidence without consuming any relay pairs — the
// store's Put/Get owner resolution rides AnonLookupFull, so caching there
// covers both automatically.
//
// Correctness leans on coarse invalidation rather than precise tracking:
// any membership signal observed by this node (a neighbor spliced out, an
// endpoint announce, a revocation, our own departure) flushes the whole
// cache, and a store operation that finds a cached owner useless drops that
// one entry. Entries also age out after the TTL, bounding how long a shift
// this node never observes can be served. The evidence table's successor
// list still gives readers the replica set, so even a stale owner degrades
// to a replica fetch, not a wrong answer.
//
// All access happens in the node's serialization context; no locking.
// Timestamps come from transport.Now(), so virtual-time runs age entries in
// virtual time.
type lookupCache struct {
	cap     int
	ttl     time.Duration
	now     func() time.Duration
	entries map[id.ID]lookupCacheEntry
	order   []id.ID // insertion order; FIFO eviction at capacity
}

type lookupCacheEntry struct {
	res     DirectLookupResult
	expires time.Duration
}

func newLookupCache(capacity int, ttl time.Duration, now func() time.Duration) *lookupCache {
	if capacity <= 0 {
		return nil
	}
	if ttl <= 0 {
		ttl = 60 * time.Second
	}
	return &lookupCache{
		cap:     capacity,
		ttl:     ttl,
		now:     now,
		entries: make(map[id.ID]lookupCacheEntry, capacity),
	}
}

// get returns the cached result for key, expiring it if the TTL lapsed.
func (c *lookupCache) get(key id.ID) (DirectLookupResult, bool) {
	e, ok := c.entries[key]
	if !ok {
		return DirectLookupResult{}, false
	}
	if c.now() > e.expires {
		delete(c.entries, key)
		return DirectLookupResult{}, false
	}
	return e.res, true
}

// put stores a successful lookup result, evicting the oldest entries when
// the cache is full. The order slice may hold identifiers whose entries were
// already invalidated or re-inserted; eviction skips those.
func (c *lookupCache) put(key id.ID, res DirectLookupResult) {
	if !res.Owner.Valid() {
		return
	}
	if _, ok := c.entries[key]; !ok {
		for len(c.entries) >= c.cap && len(c.order) > 0 {
			old := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, old)
		}
		c.order = append(c.order, key)
	}
	c.entries[key] = lookupCacheEntry{res: res, expires: c.now() + c.ttl}
}

// invalidate drops one entry (store read-repair: the cached owner failed).
func (c *lookupCache) invalidate(key id.ID) {
	delete(c.entries, key)
}

// flush empties the cache; it reports whether anything was dropped.
func (c *lookupCache) flush() bool {
	if len(c.entries) == 0 && len(c.order) == 0 {
		return false
	}
	clear(c.entries)
	c.order = c.order[:0]
	return true
}

// flushLookupCache empties the node's lookup cache in response to a
// membership event. Nil-safe (caching off).
func (n *Node) flushLookupCache() {
	if n.lcache != nil && n.lcache.flush() {
		n.stats.CacheFlushes.Add(1)
	}
}

// InvalidateLookup drops one cached lookup result. internal/store calls it
// when the resolved owner (and every replica candidate) turned out useless,
// so the next operation on the key re-resolves instead of repeating the
// stale answer until the TTL. Host context only; nil-safe.
func (n *Node) InvalidateLookup(key id.ID) {
	if n.lcache != nil {
		n.lcache.invalidate(key)
	}
}

// cacheLookupResult stores a completed lookup's outcome. Host context only;
// nil-safe.
func (n *Node) cacheLookupResult(key id.ID, owner chord.Peer, res DirectLookupResult) {
	if n.lcache != nil && owner.Valid() {
		n.lcache.put(key, res)
	}
}
