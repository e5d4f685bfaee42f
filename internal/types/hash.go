package types

import (
	"math"
	"math/bits"
)

// The one hash of a key. Placing a row on a segment, routing it through a
// redistribute motion, choosing the segment a statement is dispatched to
// alone, a hash table's directory and a spill partition all start from
// the same value P, folded over the key's columns from each cell's word,
// and differ only in how they reduce it: a segment is P's top bits
// (SegmentOf), a table slot or a spill partition the low bits of P mixed
// (Mix64). So every consumer agrees on which values are one key, and the
// rows one segment receives still spread over a table's slots.

// golden is 2^64 divided by the golden ratio: the odd multiplier of the
// fold, under which consecutive and strided integers spread evenly over
// the top bits.
const golden = 0x9e3779b97f4a7c15

// FNV-1a, 64 bit: a string's word.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Salts that keep the hashable classes (Hashable) apart.
const (
	saltFloat = 0xc2b2ae3d27d4eb4f
	saltDate  = 0x165667b19e3779f9
	saltBool  = 0x27d4eb2f165667c5
	saltNull  = 0x85ebca6b2c1b3c6d
)

// cellWord is the hash word of one cell from its typed fields, after the
// one normal form equal values share: for every pair of kinds Hashable
// admits, the words of a and b are equal whenever Compare(a, b) == 0. An
// integer of either width and a decimal of any scale are brought to
// (unscaled value, scale) with the trailing zeros stripped, so 7, 7.0
// and 7.00 are one word, the integer's own value; -0.0 is 0.0 and every
// NaN one NaN; TEXT and BYTEA are FNV-1a of their bytes; DATE, BOOL and
// NULL are salted apart. KeyWord reads it from a Datum, VecKeyWord from a
// vector's entry.
func cellWord(k Kind, scale int8, i int64, f float64, s string) uint64 {
	switch k {
	case KindNull:
		return saltNull
	case KindInt32, KindInt64:
		return uint64(i)
	case KindDecimal:
		u, sc := StripZeros(i, scale)
		return uint64(u) + uint64(sc)*golden
	case KindFloat64:
		switch {
		case f == 0:
			f = 0 // -0.0 equals 0.0
		case f != f:
			f = math.NaN() // one NaN
		}
		return math.Float64bits(f) ^ saltFloat
	case KindString, KindBytes:
		h := uint64(fnvOffset)
		for j := 0; j < len(s); j++ {
			h = (h ^ uint64(s[j])) * fnvPrime
		}
		return h
	case KindDate:
		return uint64(i) ^ saltDate
	case KindBool:
		return uint64(i) ^ saltBool
	}
	return 0
}

// KeyWord is the hash word of a cell (cellWord).
func KeyWord(d *Datum) uint64 { return cellWord(d.K, d.Scale, d.I, d.F, d.S) }

// VecKeyWord is KeyWord(&d) for d := v.Datum(e), read from the vector's
// typed fields; valid is false when the entry is NULL.
func VecKeyWord(v *Vector, e int) (w uint64, valid bool) {
	switch v.Class() {
	case ClassNull:
		return saltNull, false
	case ClassMixed:
		d := &v.Values[e]
		return KeyWord(d), d.K != KindNull
	}
	if v.Nulls.At(e) {
		return saltNull, false
	}
	switch v.Class() {
	case ClassFloat:
		return cellWord(KindFloat64, 0, 0, v.Floats[e], ""), true
	case ClassStr:
		return cellWord(v.Kind, 0, 0, 0, v.Text(e)), true
	}
	return cellWord(v.Kind, v.Scale, v.Ints[e], 0, ""), true
}

// FoldKey folds the word of one more key column into a key's hash P,
// which starts at 0.
func FoldKey(p, w uint64) uint64 { return (bits.RotateLeft64(p, 27) + w) * golden }

// HashKeys folds the words of the key columns cols of row into P. ok is
// false when a key is NULL: to a join such a row joins nothing; placement
// and a grouping do not ask. A NaN is a key like any other number, equal
// to NaN alone.
func HashKeys(row Row, cols []int) (p uint64, ok bool) {
	ok = true
	for _, c := range cols {
		d := &row[c]
		if d.K == KindNull {
			ok = false
		}
		p = FoldKey(p, KeyWord(d))
	}
	return p, ok
}

// FoldVecKeys folds the word of column v into hashes, one per surviving
// row, whose entries idx lists (nil: row i is entry i), and marks in
// nulls, unless it is nil, the rows whose entry is NULL. A column of runs
// or codes has each entry's word taken once, into ents (grown and
// returned for reuse), and spread to its rows.
func FoldVecKeys(v *Vector, idx []int32, hashes []uint64, nulls *NullBitmap, ents []uint64) []uint64 {
	switch {
	case v.Class() == ClassNull:
		for i := range hashes {
			hashes[i] = FoldKey(hashes[i], saltNull)
			if nulls != nil {
				nulls.Set(i)
			}
		}
	case v.Enc != VecFlat:
		ents = ents[:0]
		for e := range v.Entries() {
			w, _ := VecKeyWord(v, e)
			ents = append(ents, w)
		}
		for i, e := range idx {
			hashes[i] = FoldKey(hashes[i], ents[e])
			if nulls != nil && v.Null(int(e)) {
				nulls.Set(i)
			}
		}
	case v.Class() == ClassInt && len(v.Nulls) == 0 && (v.Kind == KindInt64 || v.Kind == KindInt32):
		// The common key, a flat integer column without NULLs, in a loop
		// of its own, an integer being its own word: a call per row made
		// tpch_join 14 % slower (EXPERIMENTS.md, "A join probes vectors").
		if idx == nil {
			for i, x := range v.Ints[:len(hashes)] {
				hashes[i] = FoldKey(hashes[i], uint64(x))
			}
		} else {
			for i, e := range idx {
				hashes[i] = FoldKey(hashes[i], uint64(v.Ints[e]))
			}
		}
	default:
		for i := range hashes {
			e := i
			if idx != nil {
				e = int(idx[i])
			}
			w, valid := VecKeyWord(v, e)
			hashes[i] = FoldKey(hashes[i], w)
			if !valid && nulls != nil {
				nulls.Set(i)
			}
		}
	}
	return ents
}

// SegmentOf reduces a key's hash P to one of n segments by its top bits,
// hi64(P·n) (Lemire's fastrange): placement, a redistribute motion and
// direct dispatch all take a row's segment from here. The fold leaves
// dense and strided integer keys evenly spread over the top bits, where a
// modulo of the low bits would not be.
func SegmentOf(p uint64, n int) int {
	hi, _ := bits.Mul64(p, uint64(n))
	return int(hi)
}

// Mix64 is the 64-bit finalizer of MurmurHash3: a bijection under which
// every input bit reaches every output bit. A hash table indexes its
// directory by the low bits of Mix64(P), so the rows of one segment,
// which share P's top bits, fill the directory as evenly as any.
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
