package session

import (
	"container/list"
	"sync"
)

// PlanCache is a bounded LRU of plans keyed by statement fingerprint.
// Every entry records the catalog version it was planned under; a
// lookup whose snapshot carries a different version treats the entry as
// invalid. Values are opaque to the cache; by contract callers store a
// plan as planned and never write it: an execution's state — its
// arguments, pinned slices and resource stamps — goes into a header copy
// (plan.Clone shares every node), so one cached plan serves any number
// of concurrent sessions.
type PlanCache struct {
	mu  sync.Mutex
	cap int
	lru *list.List // front = most recent; values are *cacheEntry
	byK map[string]*list.Element

	hits, misses, invalidations, evictions, stores int64
}

type cacheEntry struct {
	key string
	ver uint64
	val any
}

// NewPlanCache creates a cache bounded to capacity (> 0) entries.
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{cap: capacity, lru: list.New(), byK: map[string]*list.Element{}}
}

// Get returns the encoded plan for key if present and planned under
// catalog version ver. An entry under an older version is deleted and
// counted as an invalidation; an entry under a newer version (a reader
// with an old serializable snapshot) is left in place and reported as a
// plain miss.
func (c *PlanCache) Get(key string, ver uint64) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byK[key]
	if !ok {
		c.misses++
		cacheMisses.Inc()
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.ver != ver {
		if e.ver < ver {
			c.removeLocked(el)
			c.invalidations++
			cacheInvalidations.Inc()
		}
		c.misses++
		cacheMisses.Inc()
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	cacheHits.Inc()
	return e.val, true
}

// Put stores the plan for key under catalog version ver, evicting the
// least recently used entry when full. It never replaces an entry
// planned under a newer version.
func (c *PlanCache) Put(key string, ver uint64, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byK[key]; ok {
		e := el.Value.(*cacheEntry)
		if e.ver > ver {
			return
		}
		e.ver, e.val = ver, val
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		c.removeLocked(c.lru.Back())
		c.evictions++
		cacheEvictions.Inc()
	}
	c.byK[key] = c.lru.PushFront(&cacheEntry{key: key, ver: ver, val: val})
	c.stores++
	cacheStores.Inc()
}

func (c *PlanCache) removeLocked(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry)
	delete(c.byK, e.key)
}

// Flush drops every entry (promotion installs a fresh transaction
// manager whose catalog version restarts, so cross-epoch entries must
// not survive).
func (c *PlanCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	clear(c.byK)
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Size, Capacity                                 int
	Hits, Misses, Invalidations, Evictions, Stores int64
}

// Stats returns current sizes and counters (SHOW plan_cache and tests).
func (c *PlanCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Size: c.lru.Len(), Capacity: c.cap,
		Hits: c.hits, Misses: c.misses, Invalidations: c.invalidations,
		Evictions: c.evictions, Stores: c.stores,
	}
}
