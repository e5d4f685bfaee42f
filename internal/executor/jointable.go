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

// FNV-1a, 64 bit, for what is hashed a byte at a time: a string key.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Salts that keep the hashable classes (types.Hashable) apart.
const (
	saltFloat = 0xc2b2ae3d27d4eb4f
	saltDate  = 0x165667b19e3779f9
	saltBool  = 0x27d4eb2f165667c5
	saltNull  = 0x85ebca6b2c1b3c6d
)

// keyHash hashes one key cell, from its typed fields and without encoding
// it, after the one normal form equal values share: for every pair of
// kinds the planner admits as a hash key (types.Hashable), keyHash(a) ==
// keyHash(b) whenever types.Compare(a, b) == 0. An integer of either
// width and a decimal of any scale are brought to (unscaled value, scale)
// with the trailing zeros stripped, so 7, 7.0 and 7.00 are one key; -0.0
// hashes as 0.0 and every NaN as one NaN; TEXT and BYTEA hash their
// bytes. NULL is a key too: a grouping's, which hashKeys tells a join to
// refuse. vecKeyHash is the same function read from a vector's entries.
//
// It is the hash of every keyTable and spill partition (partOfHash salts
// it by level), and deliberately not the placement hash
// (types.HashRowCols): the rows a redistribute motion delivers to one
// segment agree in that hash modulo the segment count, and a directory
// indexed by it would use a fraction of its slots.
func keyHash(d *types.Datum) uint64 {
	switch d.K {
	case types.KindNull:
		return saltNull // mix64(0) is the integer 0's
	case types.KindFloat64:
		return floatHash(d.F)
	case types.KindString, types.KindBytes:
		return strHash(d.S)
	}
	return intHash(d.K, d.Scale, d.I)
}

// intHash is keyHash of a cell of an integer-like kind: an integer, a
// decimal of the given scale, a date or a bool.
func intHash(k types.Kind, scale int8, x int64) uint64 {
	switch k {
	case types.KindInt32, types.KindInt64:
		return mix64(uint64(x))
	case types.KindDecimal:
		u, sc := types.StripZeros(x, scale)
		return mix64(uint64(u) + uint64(sc)*golden)
	case types.KindDate:
		return mix64(uint64(x) ^ saltDate)
	case types.KindBool:
		return mix64(uint64(x) ^ saltBool)
	}
	return 0
}

// floatHash is keyHash of a DOUBLE.
func floatHash(f float64) uint64 {
	switch {
	case f == 0:
		f = 0 // -0.0 equals 0.0
	case f != f:
		f = math.NaN() // one NaN
	}
	return mix64(math.Float64bits(f) ^ saltFloat)
}

// strHash is keyHash of a TEXT or BYTEA cell: FNV-1a over its bytes.
func strHash(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return mix64(h)
}

// vecKeyHash is keyHash(&d) for d := v.Datum(e), read from the vector's
// typed fields; valid is false when the entry is NULL.
func vecKeyHash(v *types.Vector, e int) (h uint64, valid bool) {
	switch v.Class() {
	case types.ClassNull:
		return saltNull, false
	case types.ClassMixed:
		d := &v.Values[e]
		return keyHash(d), d.K != types.KindNull
	}
	if v.Nulls.At(e) {
		return saltNull, false
	}
	switch v.Class() {
	case types.ClassFloat:
		return floatHash(v.Floats[e]), true
	case types.ClassStr:
		return strHash(v.Text(e)), true
	}
	return intHash(v.Kind, v.Scale, v.Ints[e]), true
}

// foldKey folds the hash of one more key column into a key's hash.
func foldKey(h, kh uint64) uint64 { return bits.RotateLeft64(h, 27)*golden + kh }

// foldVecKeys folds the key hash of column v into hashes, one per
// surviving row, whose entries idx lists (nil: row i is entry i), and
// marks in nulls the rows whose entry is NULL. A column of runs or codes
// is hashed once per entry, into ents (grown and returned for reuse),
// and spread to its rows.
func foldVecKeys(v *types.Vector, idx []int32, hashes []uint64, nulls *types.NullBitmap, ents []uint64) []uint64 {
	switch {
	case v.Class() == types.ClassNull:
		for i := range hashes {
			hashes[i] = foldKey(hashes[i], saltNull)
			nulls.Set(i)
		}
	case v.Enc != types.VecFlat:
		ents = ents[:0]
		for e := range v.Entries() {
			h, _ := vecKeyHash(v, e)
			ents = append(ents, h)
		}
		for i, e := range idx {
			hashes[i] = foldKey(hashes[i], ents[e])
			if v.Null(int(e)) {
				nulls.Set(i)
			}
		}
	case v.Class() == types.ClassInt && len(v.Nulls) == 0 && (v.Kind == types.KindInt64 || v.Kind == types.KindInt32):
		// The common key, a flat integer column without NULLs, hashed in a
		// loop of its own: the default loop's call per row made tpch_join
		// 14 % slower (EXPERIMENTS.md, "A join probes vectors").
		if idx == nil {
			for i, x := range v.Ints[:len(hashes)] {
				hashes[i] = foldKey(hashes[i], mix64(uint64(x)))
			}
		} else {
			for i, e := range idx {
				hashes[i] = foldKey(hashes[i], mix64(uint64(v.Ints[e])))
			}
		}
	default:
		for i := range hashes {
			e := i
			if idx != nil {
				e = int(idx[i])
			}
			h, valid := vecKeyHash(v, e)
			hashes[i] = foldKey(hashes[i], h)
			if !valid {
				nulls.Set(i)
			}
		}
	}
	return ents
}

// keyEqual reports whether two key cells are the same key:
// types.Compare(a, b) == 0 within a hashable class, NaN the same key as
// NaN, false across classes (the planner lets no such pair be a hash key;
// a DOUBLE against an exact numeric is a join predicate, not a key) —
// and, as only a grouping gets to ask, NULL the same key as NULL.
func keyEqual(a, b *types.Datum) bool {
	switch a.K {
	case types.KindNull:
		return b.K == types.KindNull
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
		return b.K == types.KindFloat64 && (a.F == b.F || a.F != a.F && b.F != b.F)
	case types.KindDate, types.KindBool:
		return b.K == a.K && a.I == b.I
	case types.KindString, types.KindBytes:
		return (b.K == types.KindString || b.K == types.KindBytes) && a.S == b.S
	}
	return false
}

// hashKeys folds keyHash over the key columns of row. ok is false when a
// key is NULL: to a join such a row joins nothing; a grouping does not
// ask. A NaN is a key like any other number, equal to NaN alone.
func hashKeys(row types.Row, cols []int) (h uint64, ok bool) {
	ok = true
	for _, c := range cols {
		d := &row[c]
		if d.K == types.KindNull {
			ok = false
		}
		// One key column: the row's hash is the column's.
		h = foldKey(h, keyHash(d))
	}
	return h, ok
}

// keyTable is the executor's one hash table: rows copied once into a
// rowStore, the key hash of each, and a power-of-two directory of chain
// heads, at least a slot a row, with one link per row. Links are row
// numbers plus one, zero ending a chain.
//
// A hash join adds its build rows and seals the table when the last one
// is in: the directory is sized exactly once, and a chain runs in
// insertion order, so a probe row meets its matches in the order the
// build side delivered them. A grouping — the aggregate's groups, the
// values its DISTINCT aggregates have met, DISTINCT's rows — finds a key
// or inserts it: the rows are the keys, all their columns, each once; a
// row's number is the dense id of its group; and seal runs again, over
// the stored hashes, whenever the rows outnumber the slots.
//
// The rows are Datum cells, not typed columns: the probe hands
// joinProbe whole build rows to concatenate and to evaluate the join
// predicate over, and batches of Datum rows are what operators exchange.
type keyTable struct {
	rows   rowStore
	hashes []uint64
	head   []int32
	next   []int32
}

// len returns the number of rows.
func (t *keyTable) len() int { return len(t.hashes) }

// add appends a row whose keys hash to h, unlinked until seal. A link is
// an int32: the table refuses the row that would not fit one.
func (t *keyTable) add(h uint64, row types.Row) error {
	if len(t.hashes) == math.MaxInt32-1 {
		return fmt.Errorf("executor: hash table exceeds %d rows", math.MaxInt32-1)
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

// seal builds the directory over the rows added, with room in the links
// for as many rows as it has slots. Linking from the last row to the
// first leaves every chain in insertion order.
func (t *keyTable) seal() {
	n := len(t.hashes)
	if n == 0 {
		return
	}
	t.head = make([]int32, max(rowStoreBase, 1<<bits.Len(uint(n-1))))
	t.next = make([]int32, n, len(t.head))
	mask := uint64(len(t.head) - 1)
	for i := n - 1; i >= 0; i-- {
		slot := t.hashes[i] & mask
		t.next[i] = t.head[slot]
		t.head[slot] = int32(i + 1)
	}
}

// insert adds a key that find did not find, linked in at once, and
// returns its number. The key's strings are copied: a grouping keeps its
// keys for as long as it runs, and a string cut out of a page would keep
// the page.
func (t *keyTable) insert(h uint64, key types.Row) (int32, error) {
	if err := t.add(h, key); err != nil {
		return -1, err
	}
	n := len(t.hashes)
	kept := t.rows.row(n - 1)
	for i := range kept {
		kept[i] = kept[i].Detach()
	}
	if n > len(t.head) {
		t.seal() // a row for every slot: the directory doubles
	} else {
		slot := h & uint64(len(t.head)-1)
		t.next = append(t.next, t.head[slot])
		t.head[slot] = int32(n)
	}
	return int32(n - 1), nil
}

// sameKey reports whether the key cells of row equal probe's.
func sameKey(probe, row types.Row, probeKeys, keys []int) bool {
	for j, c := range probeKeys {
		if !keyEqual(&probe[c], &row[keys[j]]) {
			return false
		}
	}
	return true
}

// find returns the number of the row that is key, whose columns cols hash
// to h, or -1.
func (t *keyTable) find(h uint64, key types.Row, cols []int) int32 {
	for l := t.first(h); l != 0; l = t.next[l-1] {
		if t.hashes[l-1] == h && sameKey(key, t.rows.row(int(l-1)), cols, cols) {
			return l - 1
		}
	}
	return -1
}

// admit reports whether key is new to the table, and then inserts it,
// charged to mem's hard grant: the set it joins has no spill path.
func (t *keyTable) admit(mem *memBudget, key types.Row, cols []int) (bool, error) {
	h, _ := hashKeys(key, cols)
	if t.find(h, key, cols) >= 0 {
		return false, nil
	}
	if err := mem.growHard(rowMem(key)); err != nil {
		return false, err
	}
	_, err := t.insert(h, key)
	return err == nil, err
}

// first returns the link of the first row whose key hash is h — its
// number plus one — or 0 when there is none: the place lookup starts
// from, found before the probe's key cells need to exist.
func (t *keyTable) first(h uint64) int32 {
	if len(t.head) == 0 {
		return 0
	}
	l := t.head[h&uint64(len(t.head)-1)]
	for l != 0 && t.hashes[l-1] != h {
		l = t.next[l-1]
	}
	return l
}

// lookup appends to out every row from link l on (first's; 0 is none)
// whose key hash is h and whose key cells equal probe's, in insertion
// order. The rows are views into the table, valid until reset.
func (t *keyTable) lookup(l int32, h uint64, probe types.Row, probeKeys, keys []int, out []types.Row) []types.Row {
	for ; l != 0; l = t.next[l-1] {
		if t.hashes[l-1] != h {
			continue
		}
		if row := t.rows.row(int(l - 1)); sameKey(probe, row, probeKeys, keys) {
			out = append(out, row)
		}
	}
	return out
}

// reset empties the table and lets go of its memory.
func (t *keyTable) reset() { *t = keyTable{} }
