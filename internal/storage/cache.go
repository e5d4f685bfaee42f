package storage

import (
	"container/list"
	"sync"
	"sync/atomic"

	"hawq/internal/obs"
	"hawq/internal/resource"
	"hawq/internal/types"
)

// BlockCacheBytes is the capacity of one segment's block cache. It is a
// constant, not a setting: every workload the repository measures fits,
// and a table that does not fit scans through the cache untouched
// (second-touch admission plus LRU keep what is re-read).
const BlockCacheBytes = 32 << 20

// Fixed charges for the bookkeeping around a cached vector and a cached
// file, so that a cache full of tiny entries is bounded too.
const (
	entryOverhead = 128
	fileOverhead  = 256
)

// Cache traffic, process-wide over every segment's cache. A hit or miss
// is one (block, stored column) lookup by a scan.
var (
	cacheHits      = obs.GetCounter("storage.cache_hits")
	cacheMisses    = obs.GetCounter("storage.cache_misses")
	cacheEvictions = obs.GetCounter("storage.cache_evictions")
	// cacheBytes mirrors the sum of every live cache's account.
	cacheBytes atomic.Int64
)

func init() {
	obs.RegisterGauge("storage.cache_bytes", cacheBytes.Load)
}

// BlockCache is a segment's cache of decoded storage blocks: for every
// file it has scanned, the block directory of a prefix of the file and,
// per (block, stored column), the column vector scans are handed.
//
// Validity comes from HDFS. An entry belongs to a (file id, truncate
// generation): ids are never reused and appends never rewrite, so the
// bytes at an offset can only change when the file is truncated below
// it, which bumps the generation. A scan opens the file first and shows
// the identity it got; a newer generation discards the file's entries.
//
// Vectors are admitted on their second touch (a bounded set of key
// hashes remembers the first), evicted least-recently-used, charged to
// one resource.Account together with the directories, and shared
// read-only: every hit hands out the same slices with Vector.Shared
// set. Checksums are verified when bytes are decoded, before anything
// can be admitted.
//
// A nil *BlockCache is the uncached reader: the same scan code with
// nothing remembered.
type BlockCache struct {
	mu    sync.Mutex
	acct  *resource.Account
	files map[uint64]*cachedFile
	// lru orders resident vectors, most recently used first. idle holds
	// the files that have no resident vector, oldest first: a directory
	// alone is cheap to rebuild, so these go before any vector does.
	lru  list.List
	idle list.List
	// ghost remembers the keys missed once; ring is its insertion order,
	// overwritten in a circle.
	ghost map[uint64]struct{}
	ring  []uint64
	next  int
}

// NewBlockCache returns an empty cache of BlockCacheBytes.
func NewBlockCache() *BlockCache { return newBlockCache(BlockCacheBytes) }

func newBlockCache(capacity int64) *BlockCache {
	// One remembered key per 4 KiB of capacity: about what the cache
	// could hold if every entry were one column of one block.
	ghosts := max(int(capacity>>12), 16)
	return &BlockCache{
		acct:  resource.NewAccount(capacity),
		files: map[uint64]*cachedFile{},
		ghost: make(map[uint64]struct{}, ghosts),
		ring:  make([]uint64, ghosts),
	}
}

// Bytes returns what the cache holds now, the Used of its account.
func (c *BlockCache) Bytes() int64 { return c.acct.Used() }

// Drop empties the cache: the next scan of anything is a cold read.
// Scans in flight keep the vectors they already hold and add nothing.
func (c *BlockCache) Drop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.files {
		c.removeFile(f)
	}
	clear(c.ghost)
	clear(c.ring)
}

// vecKey names a vector within its file: the block's ordinal and the
// stored column.
type vecKey struct{ block, col int32 }

// cacheEntry is one resident vector.
type cacheEntry struct {
	file *cachedFile
	key  vecKey
	vec  types.Vector
	size int64
}

// cachedFile is what the cache knows about one (file id, generation).
// All fields are guarded by the cache mutex; scans work on snapshots.
type cachedFile struct {
	c       *BlockCache
	id, gen uint64
	dir     fileDir
	// charged is what the file itself costs: overhead plus directory.
	charged int64
	vecs    map[vecKey]*list.Element
	// idle is the file's place in c.idle while vecs is empty.
	idle *list.Element
	// dead is set once the file left the cache; a scan still holding it
	// reads through uncached.
	dead bool
}

// file returns the cache's record of the file a scan just opened,
// created on first sight, and its directory as it stands — the slices
// are appended to but never rewritten, so that snapshot stays valid
// without the lock. A generation newer than the recorded one means the
// file was truncated since: everything cached of it is discarded. An
// older one (a reader that opened before the truncate) gets nil and
// scans uncached, as does any scan when the cache is nil.
func (c *BlockCache) file(id, gen uint64) (*cachedFile, fileDir) {
	if c == nil {
		return nil, fileDir{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.files[id]; f != nil {
		if f.gen == gen {
			return f, f.dir
		}
		if f.gen > gen {
			return nil, fileDir{}
		}
		c.removeFile(f)
	}
	f := &cachedFile{c: c, id: id, gen: gen, vecs: map[vecKey]*list.Element{}}
	if !c.reserve(fileOverhead, f) {
		return nil, fileDir{}
	}
	f.charged = fileOverhead
	f.idle = c.idle.PushBack(f)
	c.files[id] = f
	return f, fileDir{}
}

// lookup hands out the cached vector for (block, col) into v. On a miss
// it reports whether the caller's freshly decoded vector should be
// offered with put: true from the second miss of the same key on.
func (f *cachedFile) lookup(key vecKey, v *types.Vector, st *ScanStats) (hit, admit bool) {
	if f == nil {
		return false, false
	}
	c := f.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := f.vecs[key]; el != nil {
		c.lru.MoveToFront(el)
		*v = el.Value.(*cacheEntry).vec
		cacheHits.Inc()
		if st != nil {
			st.CacheHits++
		}
		return true, false
	}
	cacheMisses.Inc()
	if st != nil {
		st.CacheMisses++
	}
	if f.dead {
		return false, false
	}
	// A cheap mix of the key; a collision only admits a vector one touch
	// early.
	h := (f.id*0x9E3779B97F4A7C15 ^ f.gen) + uint64(key.block)<<24 + uint64(key.col)
	h = (h ^ h>>29) * 0xBF58476D1CE4E5B9
	if _, seen := c.ghost[h]; seen {
		return false, true
	}
	delete(c.ghost, c.ring[c.next])
	c.ring[c.next] = h
	c.ghost[h] = struct{}{}
	c.next = (c.next + 1) % len(c.ring)
	return false, false
}

// put offers a decoded vector. On true the cache shares v's slices from
// now on and the caller must treat them as read-only (v.Shared is set).
// A vector that cannot fit even in an empty cache is refused.
func (f *cachedFile) put(key vecKey, v *types.Vector) bool {
	size := v.MemBytes() + entryOverhead
	c := f.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.dead || f.vecs[key] != nil || !c.reserve(size, f) {
		return false
	}
	v.Shared = true
	f.vecs[key] = c.lru.PushFront(&cacheEntry{file: f, key: key, vec: *v, size: size})
	if f.idle != nil {
		c.idle.Remove(f.idle)
		f.idle = nil
	}
	return true
}

// extend appends the blocks a scan parsed beyond the directory it
// started from. The offer is dropped when another scan got there first.
func (f *cachedFile) extend(grown *fileDir) {
	if f == nil || len(grown.blocks) == 0 {
		return
	}
	c := f.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.dead || f.dir.end() != grown.blocks[0].off || (f.dir.per != 0 && f.dir.per != grown.per) {
		return
	}
	n := grown.bytes()
	if !c.reserve(n, f) {
		return
	}
	f.charged += n
	f.dir.append(grown)
}

// reserve charges n bytes, evicting until they fit: files without a
// resident vector first (never keep, the file being scanned), then
// vectors from the cold end. False means n can never fit.
func (c *BlockCache) reserve(n int64, keep *cachedFile) bool {
	if n > c.acct.Limit() {
		return false
	}
	for c.acct.Used()+n > c.acct.Limit() {
		el := c.idle.Front()
		if el != nil && el.Value.(*cachedFile) == keep {
			el = el.Next()
		}
		if el != nil {
			c.removeFile(el.Value.(*cachedFile))
			continue
		}
		el = c.lru.Back()
		if el == nil {
			return false
		}
		c.evict(el)
		cacheEvictions.Inc()
	}
	if err := c.acct.Grow(n); err != nil {
		return false
	}
	cacheBytes.Add(n)
	return true
}

func (c *BlockCache) release(n int64) {
	c.acct.Shrink(n)
	cacheBytes.Add(-n)
}

// evict removes one resident vector.
func (c *BlockCache) evict(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry)
	f := e.file
	delete(f.vecs, e.key)
	c.release(e.size)
	if len(f.vecs) == 0 && !f.dead {
		f.idle = c.idle.PushBack(f)
	}
}

// removeFile forgets a file: its vectors, its directory, itself.
func (c *BlockCache) removeFile(f *cachedFile) {
	f.dead = true
	for _, el := range f.vecs {
		c.evict(el)
	}
	if f.idle != nil {
		c.idle.Remove(f.idle)
		f.idle = nil
	}
	c.release(f.charged)
	delete(c.files, f.id)
}
