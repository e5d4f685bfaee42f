package executor

import (
	"fmt"
	"math/bits"

	"hawq/internal/types"
)

// Chunk geometry of a rowStore, in rows: chunk k holds
// rowStoreBase<<k rows while k < rowStoreDoublings, and every later chunk
// rowStoreBase<<rowStoreDoublings.
const (
	rowStoreBaseShift = 4 // the first chunk holds 16 rows
	rowStoreDoublings = 8 // chunks stop growing at 4096 rows
	rowStoreBase      = 1 << rowStoreBaseShift
	rowStoreMaxShift  = rowStoreBaseShift + rowStoreDoublings
)

// rowStore keeps copies of the rows an operator retains — a join's build
// side, a nested loop's inner side, a sort's buffer — in a few Datum
// arrays instead of one allocation per row. The chunks double from 16
// rows to 4096 and then stay that size: a build of three rows costs one
// small array, a build of a million a number of allocations that is
// logarithmic and then one per 4096 rows, and what is allocated and not
// yet used is never more than the last chunk. A chunk is never moved, so
// the view add returns stays valid until reset, and row i is found by
// arithmetic alone — the join table keeps an int32 per row, not a slice
// header.
type rowStore struct {
	width  int
	n      int
	chunks [][]types.Datum
}

// locate returns the chunk holding row i and the row's position in it.
func locate(i int) (chunk, off int) {
	// Chunk k < rowStoreDoublings starts at row rowStoreBase*(2^k - 1).
	k := bits.Len(uint(i)>>rowStoreBaseShift+1) - 1
	if k < rowStoreDoublings {
		return k, i - (1<<k-1)<<rowStoreBaseShift
	}
	i -= (1<<rowStoreDoublings - 1) << rowStoreBaseShift
	return rowStoreDoublings + i>>rowStoreMaxShift, i & (1<<rowStoreMaxShift - 1)
}

// chunkRows is the capacity of chunk k.
func chunkRows(k int) int {
	return rowStoreBase << min(k, rowStoreDoublings)
}

// add copies row into the store and returns the copy, a view that stays
// valid until reset. Every row must have the width of the first.
func (s *rowStore) add(row types.Row) types.Row {
	if s.n == 0 {
		s.width = len(row)
	} else if len(row) != s.width {
		panic(fmt.Sprintf("executor: %d-column row added to a store of %d-column rows", len(row), s.width))
	}
	k, off := locate(s.n)
	s.n++
	if k == len(s.chunks) {
		s.chunks = append(s.chunks, make([]types.Datum, chunkRows(k)*s.width))
	}
	off *= s.width
	dst := s.chunks[k][off : off+s.width : off+s.width]
	copy(dst, row)
	return dst
}

// row returns row i, the view add returned for it.
func (s *rowStore) row(i int) types.Row {
	k, off := locate(i)
	off *= s.width
	return s.chunks[k][off : off+s.width : off+s.width]
}

// reset forgets every row and lets go of the chunks: whoever resets has
// just returned the rows' memory to the query's grant, and the arrays
// must not outlive the reservation that paid for them.
func (s *rowStore) reset() { *s = rowStore{} }
