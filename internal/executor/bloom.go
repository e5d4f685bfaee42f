package executor

import (
	"fmt"
	"sync"

	"hawq/internal/obs"
	"hawq/internal/types"
)

// rtfRowsRemoved counts probe-side rows eliminated by runtime bloom
// filters before they reached decode, residual filters, or a motion.
var rtfRowsRemoved = obs.GetCounter("executor.rows_removed_by_runtime_filter")

// bloomBits is the fixed filter size: 64K bits (8 KiB) per runtime
// filter. With k=4 hash functions the false-positive rate stays under
// ~2.4% up to roughly 8K distinct build keys — past that the filter
// degrades gracefully toward letting everything through, never toward
// dropping a row it shouldn't.
const (
	bloomBits  = 1 << 16
	bloomWords = bloomBits / 64
	bloomK     = 4
)

// Bloom is a fixed-size blocked-probe bloom filter over join-key
// hashes. Writers and readers are never concurrent: a build side fills
// its private filter, publishes it to the FilterHub, and only then do
// scans observe the merged result.
type Bloom struct {
	bits [bloomWords]uint64
}

// bloomIdx derives the i'th probe position by double hashing: the two
// halves of the 64-bit key hash advance independently, so k=4 probes
// cost one hash computation.
func bloomIdx(h uint64, i int) uint64 {
	h2 := (h >> 32) | 1 // odd, so successive probes don't collapse
	return (h + uint64(i)*h2) & (bloomBits - 1)
}

// Add inserts one key hash.
func (b *Bloom) Add(h uint64) {
	for i := 0; i < bloomK; i++ {
		idx := bloomIdx(h, i)
		b.bits[idx/64] |= 1 << (idx % 64)
	}
}

// MayContain reports whether the key hash may have been added: false
// means definitely absent, true means present or a false positive.
func (b *Bloom) MayContain(h uint64) bool {
	for i := 0; i < bloomK; i++ {
		idx := bloomIdx(h, i)
		if b.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// Merge ORs another filter into b (the per-segment union: after a
// redistribute motion each build gang member holds only its key
// partition, so a probe-side scan may only use the union of all of
// them).
func (b *Bloom) Merge(o *Bloom) {
	for i := range b.bits {
		b.bits[i] |= o.bits[i]
	}
}

// FilterHub distributes runtime bloom filters from hash-join build
// sides (publishers) to probe-side scans (consumers) within one query.
// The dispatcher creates one hub per query and registers, per filter
// ID, how many gang members will publish (one per segment executing
// the join's slice); a filter becomes visible to consumers only after
// every publisher has contributed, because each publisher may hold
// only its partition of the build keys. Lookup is non-blocking: scans
// poll it per page, so pages read before the filter is ready simply
// pass through unfiltered — the filter is an optimization, never a
// synchronization point.
type FilterHub struct {
	mu      sync.Mutex
	entries map[int32]*hubEntry
}

type hubEntry struct {
	expect int
	got    int
	merged *Bloom
	ready  bool
}

// NewFilterHub creates an empty hub.
func NewFilterHub() *FilterHub {
	return &FilterHub{entries: map[int32]*hubEntry{}}
}

// Expect registers a filter ID and the number of publishers that must
// contribute before the merged filter becomes visible. The dispatcher
// calls it for every runtime filter in the plan before any slice runs;
// publishes for unregistered IDs are dropped.
func (f *FilterHub) Expect(id int32, publishers int) {
	if f == nil || publishers <= 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.entries[id] = &hubEntry{expect: publishers, merged: &Bloom{}}
}

// Publish contributes one gang member's filter. When the last expected
// publisher arrives the merged union becomes visible to Lookup.
func (f *FilterHub) Publish(id int32, b *Bloom) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.entries[id]
	if e == nil {
		return nil // unregistered: plan didn't wire any consumer
	}
	if e.got >= e.expect {
		return fmt.Errorf("executor: runtime filter %d published %d times, expected %d", id, e.got+1, e.expect)
	}
	e.merged.Merge(b)
	e.got++
	if e.got == e.expect {
		e.ready = true
	}
	return nil
}

// Lookup returns the merged filter for id once every publisher has
// contributed, or nil while it is incomplete (or was never registered).
// The returned filter is immutable from this point on.
func (f *FilterHub) Lookup(id int32) *Bloom {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.entries[id]
	if e == nil || !e.ready {
		return nil
	}
	return e.merged
}

// applyBloomVec narrows vb.Sel to the rows of column col whose key hash
// (keyHash, the hash the join's build side fed the filter) may be in the
// filter — one membership test per dictionary entry or run where the
// column has those — and returns the number of rows removed.
func applyBloomVec(col int, bloom *Bloom, vb *types.VecBatch) int {
	before := vb.SelCount()
	v := &vb.Cols[col]
	vb.Narrow(col, func(e int) bool {
		// NULL keys never join; the filter exists to shed probe rows
		// for Inner/Semi joins, where NULL-key rows are dropped anyway.
		if v.Null(e) {
			return false
		}
		d := v.Datum(e)
		return bloom.MayContain(keyHash(&d))
	})
	removed := before - vb.SelCount()
	if removed > 0 {
		rtfRowsRemoved.Add(int64(removed))
	}
	return removed
}
