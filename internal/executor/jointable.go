package executor

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"hawq/internal/types"
)

// mix64 is the 64-bit finalizer of MurmurHash3: a bijection under which
// every input bit reaches every output bit.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// golden is 2^64 divided by the golden ratio: the odd multiplier that
// spreads a small integer (a scale, a spill level, a position in a key)
// over all 64 bits before it is mixed in.
const golden = 0x9e3779b97f4a7c15

// FNV-1a, 64 bit, for what is hashed a byte at a time: a string key
// here, the aggregate's encoded group key in partOfBytes.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Salts that keep the hashable classes (types.Hashable) apart.
const (
	saltFloat = 0xc2b2ae3d27d4eb4f
	saltDate  = 0x165667b19e3779f9
	saltBool  = 0x27d4eb2f165667c5
)

// keyHash hashes one non-NULL join-key cell, from its typed fields and
// without encoding it, after the one normal form equal values share: for
// every pair of kinds the planner admits as a hash key (types.Hashable),
// keyHash(a) == keyHash(b) whenever types.Compare(a, b) == 0. An integer
// of either width and a decimal of any scale are brought to (unscaled
// value, scale) with the trailing zeros stripped, so 7, 7.0 and 7.00 are
// one key; -0.0 hashes as 0.0; TEXT and BYTEA hash their bytes.
//
// It is the hash of the join's build table and of its grace partitions
// (partOfHash salts it by level). It is deliberately not the placement
// hash (types.HashRowCols): the rows a redistribute motion delivers to
// one segment agree in that hash modulo the segment count, and a
// directory indexed by it would use a fraction of its slots.
func keyHash(d *types.Datum) uint64 {
	switch d.K {
	case types.KindInt32, types.KindInt64:
		return mix64(uint64(d.I))
	case types.KindDecimal:
		u, sc := d.I, d.Scale
		for sc > 0 && u%10 == 0 {
			u /= 10
			sc--
		}
		return mix64(uint64(u) + uint64(sc)*golden)
	case types.KindFloat64:
		f := d.F
		if f == 0 {
			f = 0 // -0.0 equals 0.0
		}
		return mix64(math.Float64bits(f) ^ saltFloat)
	case types.KindDate:
		return mix64(uint64(d.I) ^ saltDate)
	case types.KindBool:
		return mix64(uint64(d.I) ^ saltBool)
	case types.KindString, types.KindBytes:
		h := uint64(fnvOffset)
		for i := 0; i < len(d.S); i++ {
			h = (h ^ uint64(d.S[i])) * fnvPrime
		}
		return mix64(h)
	}
	return 0
}

// keyEqual reports whether two non-NULL key cells are the same key:
// types.Compare(a, b) == 0 within a hashable class, false across classes
// (the planner lets no such pair be a hash key; a DOUBLE against an
// exact numeric is a join predicate, not a key).
func keyEqual(a, b *types.Datum) bool {
	switch a.K {
	case types.KindInt32, types.KindInt64, types.KindDecimal:
		switch b.K {
		case types.KindInt32, types.KindInt64:
			if a.K != types.KindDecimal {
				return a.I == b.I
			}
		case types.KindDecimal:
			if a.K == types.KindDecimal && a.Scale == b.Scale {
				return a.I == b.I
			}
		default:
			return false
		}
		return types.Compare(*a, *b) == 0 // a decimal against another scale, exactly
	case types.KindFloat64:
		return b.K == types.KindFloat64 && a.F == b.F
	case types.KindDate, types.KindBool:
		return b.K == a.K && a.I == b.I
	case types.KindString, types.KindBytes:
		return (b.K == types.KindString || b.K == types.KindBytes) && a.S == b.S
	}
	return false
}

// hashKeys folds keyHash over the key columns of row. ok is false when a
// key is NULL: such a row joins nothing.
func hashKeys(row types.Row, cols []int) (h uint64, ok bool) {
	for _, c := range cols {
		d := &row[c]
		if d.K == types.KindNull {
			return 0, false
		}
		// One key column: the row's hash is the column's.
		h = bits.RotateLeft64(h, 27)*golden + keyHash(d)
	}
	return h, true
}

// joinTable is the hash join's build table: the build rows, copied once
// into a rowStore, the key hash of each, and — sized exactly once, by
// seal, when the last row is in — a power-of-two directory of chain
// heads with one link per row. Links are row numbers plus one, zero
// ending a chain, and a chain runs in insertion order, so a probe row
// meets its matches in the order the build side delivered them.
//
// The rows are Datum cells, not typed columns: the probe hands
// joinProbe whole build rows to concatenate and to evaluate the join
// predicate over, and batches of Datum rows are what operators exchange.
type joinTable struct {
	rows   rowStore
	hashes []uint64
	head   []int32
	next   []int32
}

// add appends a build row whose keys hash to h. A link is an int32: the
// table refuses the row that would not fit one.
func (t *joinTable) add(h uint64, row types.Row) error {
	if len(t.hashes) == math.MaxInt32-1 {
		return fmt.Errorf("executor: hash join build side exceeds %d rows", math.MaxInt32-1)
	}
	if len(t.hashes) == cap(t.hashes) {
		// Doubled, from what the first chunk holds: append's own growth of
		// a quarter at a time would allocate five times the final array.
		t.hashes = slices.Grow(t.hashes, max(rowStoreBase, len(t.hashes)))
	}
	t.rows.add(row)
	t.hashes = append(t.hashes, h)
	return nil
}

// seal builds the directory over the rows added. Linking from the last
// row to the first leaves every chain in insertion order.
func (t *joinTable) seal() {
	n := len(t.hashes)
	if n == 0 {
		return
	}
	t.head = make([]int32, 1<<bits.Len(uint(n-1)))
	t.next = make([]int32, n)
	mask := uint64(len(t.head) - 1)
	for i := n - 1; i >= 0; i-- {
		slot := t.hashes[i] & mask
		t.next[i] = t.head[slot]
		t.head[slot] = int32(i + 1)
	}
}

// lookup appends to out the build rows whose key hash is h and whose key
// cells equal probe's, in insertion order. The rows are views into the
// table, valid until reset.
func (t *joinTable) lookup(h uint64, probe types.Row, probeKeys, buildKeys []int, out []types.Row) []types.Row {
	if len(t.head) == 0 {
		return out
	}
next:
	for l := t.head[h&uint64(len(t.head)-1)]; l != 0; l = t.next[l-1] {
		if t.hashes[l-1] != h {
			continue
		}
		row := t.rows.row(int(l - 1))
		for i, c := range probeKeys {
			if !keyEqual(&probe[c], &row[buildKeys[i]]) {
				continue next
			}
		}
		out = append(out, row)
	}
	return out
}

// reset empties the table and lets go of its memory.
func (t *joinTable) reset() { *t = joinTable{} }
