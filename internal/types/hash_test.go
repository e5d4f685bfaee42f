package types_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"hawq/internal/testutil"
	. "hawq/internal/types"
)

// keyDatums draws key cells that collide on purpose: a handful of small
// values in every representation that can hold them — either integer
// width, a decimal of every scale from 0 to 8 with the zeros that takes,
// a DOUBLE (−0.0 for 0) — beside dates, booleans, strings and bytes over
// the same few values, NULL, and NaN in two bit patterns.
func keyDatums(rng *rand.Rand) Datum {
	v := int64(rng.Intn(7) - 3)
	switch rng.Intn(11) {
	case 0:
		return NewInt32(int32(v))
	case 1:
		return NewInt64(v)
	case 2: // an integral decimal, padded with zeros
		sc := int8(rng.Intn(MaxDecimalScale + 1))
		u := v
		for i := int8(0); i < sc; i++ {
			u *= 10
		}
		return NewDecimal(u, sc)
	case 3: // halves and tenths, at the scale they need or a wider one
		sc := int8(1 + rng.Intn(MaxDecimalScale))
		u := v*10 + int64(rng.Intn(3))*5
		for i := int8(1); i < sc; i++ {
			u *= 10
		}
		return NewDecimal(u, sc)
	case 4:
		if v == 0 && rng.Intn(2) == 0 {
			return NewFloat64(math.Copysign(0, -1))
		}
		return NewFloat64(float64(v) + float64(rng.Intn(3))*0.5)
	case 5:
		return NewDate(int32(v))
	case 6:
		return NewBool(v > 0)
	case 7:
		return NewString(string(rune('a' + v + 3)))
	case 8:
		return Null
	case 9:
		return NewFloat64(math.Float64frombits(math.Float64bits(math.NaN()) ^ uint64(v&1)))
	default:
		return NewBytes([]byte{byte('a' + v + 3)})
	}
}

// TestKeyHashMatchesCompare: for every pair of kinds Hashable admits, two
// cells have one hash word exactly when Compare calls them equal — and
// exactly then they have the same AppendKey bytes, the key the
// references' DISTINCT aggregates go by. NaN, of either bit pattern, is
// the same key as NaN, as Compare says; NULL has one word of its own.
func TestKeyHashMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	pairs, equal, collisions := 0, 0, 0
	for i := 0; i < 400000; i++ {
		a, b := keyDatums(rng), keyDatums(rng)
		var want bool
		switch {
		case a.IsNull() || b.IsNull():
			want = a.IsNull() && b.IsNull()
		case !Hashable(a.K, b.K):
			continue
		default:
			want = Compare(a, b) == 0
		}
		pairs++
		if got := bytes.Equal(AppendKey(nil, a), AppendKey(nil, b)); got != want {
			t.Fatalf("AppendKey of %s %v and of %s %v the same: %v, Compare says %v", a.K, a, b.K, b, got, want)
		}
		same := KeyWord(&a) == KeyWord(&b)
		switch {
		case want && !same:
			t.Fatalf("%s %v and %s %v compare equal and hash apart", a.K, a, b.K, b)
		case want:
			equal++
		case same:
			collisions++
		}
	}
	if equal < pairs/50 || collisions > 0 {
		t.Errorf("%d hashable pairs: %d equal, %d unequal with one word", pairs, equal, collisions)
	}
	// To a join a NULL key is no key, wherever it stands; a NaN is one.
	row := Row{NewInt64(1), Null, NewString("x"), NewFloat64(math.NaN())}
	for _, cols := range [][]int{{0, 2}, {3}, {3, 0}} {
		if _, ok := HashKeys(row, cols); !ok {
			t.Errorf("keys %v have no NULL and are refused", cols)
		}
	}
	for _, cols := range [][]int{{1}, {0, 1}, {1, 2}} {
		if _, ok := HashKeys(row, cols); ok {
			t.Errorf("keys %v include a NULL and pass for a join key", cols)
		}
	}
	// A key is its columns' words folded in order.
	h, _ := HashKeys(row, []int{2, 0})
	if want := FoldKey(FoldKey(0, KeyWord(&row[2])), KeyWord(&row[0])); h != want {
		t.Errorf("two-column key hashes %x, its folded words %x", h, want)
	}
	if swapped, _ := HashKeys(row, []int{0, 2}); swapped == h {
		t.Error("a two-column key hashes the same in either column order")
	}
}

// vecKeyClasses draws the values of one vector per class of key: either
// integer width, a decimal at each scale from 0 to 4 with the trailing
// zeros that takes, dates, booleans, doubles (±0.0 and NaN of both bit
// patterns among them), strings and bytes with the empty one, a Mixed
// column, and a column of NULLs alone. A few values each, so that runs
// and dictionaries form.
func vecKeyClasses() map[string]func(rng *rand.Rand) Datum {
	small := func(rng *rand.Rand) int64 { return int64(rng.Intn(5) - 2) }
	classes := map[string]func(rng *rand.Rand) Datum{
		"int32": func(rng *rand.Rand) Datum { return NewInt32(int32(small(rng))) },
		"int64": func(rng *rand.Rand) Datum { return NewInt64(small(rng) << 40) },
		"date":  func(rng *rand.Rand) Datum { return NewDate(int32(9000 + small(rng))) },
		"bool":  func(rng *rand.Rand) Datum { return NewBool(rng.Intn(2) == 0) },
		"float": func(rng *rand.Rand) Datum {
			nan := math.Float64frombits(math.Float64bits(math.NaN()) ^ uint64(rng.Intn(2)))
			return NewFloat64([]float64{0, math.Copysign(0, -1), 1.5, -7.25, nan}[rng.Intn(5)])
		},
		"string": func(rng *rand.Rand) Datum {
			return NewString([]string{"", "a", "ab", "ba", "MAIL"}[rng.Intn(5)])
		},
		"bytes": func(rng *rand.Rand) Datum { return NewBytes([]byte([]string{"", "a", "ab"}[rng.Intn(3)])) },
		"mixed": func(rng *rand.Rand) Datum {
			return []Datum{NewInt64(7), NewDecimal(70, 1), NewDecimal(75, 1), NewInt32(7)}[rng.Intn(4)]
		},
		"null": func(*rand.Rand) Datum { return Null },
	}
	for sc := int8(0); sc <= 4; sc++ {
		classes[fmt.Sprintf("dec%d", sc)] = func(rng *rand.Rand) Datum {
			u := small(rng)
			for i := int8(0); i < sc; i++ {
				u *= 10
			}
			return NewDecimal(u+int64(rng.Intn(2)), sc)
		}
	}
	return classes
}

// TestVecKeyHashMatchesKeyHash: a key's word read from a vector's entry
// is the word of the Datum the entry reads as, valid exactly when that
// Datum is not NULL — entry by entry through VecKeyWord, and row by row
// through FoldVecKeys over every class, in every encoding, with and
// without NULLs, under no selection and a sparse one, one key column and
// two (against HashKeys over the rows).
func TestVecKeyHashMatchesKeyHash(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n = 150
	classes := vecKeyClasses()
	var names []string
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	column := func(name string, nulls bool) []Datum {
		vals := make([]Datum, n)
		for i := range vals {
			if i > 0 && rng.Intn(3) == 0 {
				vals[i] = vals[i-1] // runs
				continue
			}
			if vals[i] = classes[name](rng); nulls && rng.Intn(4) == 0 {
				vals[i] = Null
			}
		}
		return vals
	}
	var sparse []int32
	for i := 2; i < n; i += 3 {
		sparse = append(sparse, int32(i))
	}
	encs := []VecEnc{VecFlat, VecRLE, VecDict}
	checked := map[VecClass]bool{}
	for _, name := range names {
		for _, nulls := range []bool{false, true} {
			for _, enc := range encs {
				where := fmt.Sprintf("%s nulls=%v enc=%d", name, nulls, enc)
				vals := column(name, nulls)
				v := testutil.Vector(enc, vals)
				checked[v.Class()] = true
				for e := range v.Entries() {
					d := v.Datum(e)
					w, valid := VecKeyWord(&v, e)
					if w != KeyWord(&d) || valid != !d.IsNull() {
						t.Fatalf("%s: entry %d (%s %v) has word %x valid %v, KeyWord %x", where, e, d.K, d, w, valid, KeyWord(&d))
					}
				}
				// Two key columns, this one and another class, as a batch.
				other := names[rng.Intn(len(names))]
				vb := testutil.VecBatch([][]Datum{vals, column(other, true)}, []VecEnc{enc, encs[rng.Intn(len(encs))]})
				rows := make([]Row, n)
				for i := range rows {
					rows[i] = Row{vals[i], testutil.VectorRows(&vb.Cols[1])[i]}
				}
				for _, sel := range [][]int32{nil, sparse} {
					for _, cols := range [][]int{{0}, {1, 0}} {
						m := n
						if sel != nil {
							m = len(sel)
						}
						hashes, bad := make([]uint64, m), NullBitmap(nil)
						for _, c := range cols {
							idx, _ := vb.Cols[c].EntryIndex(sel, nil)
							FoldVecKeys(&vb.Cols[c], idx, hashes, &bad, nil)
						}
						for i := range m {
							r := i
							if sel != nil {
								r = int(sel[i])
							}
							want, valid := HashKeys(rows[r], cols)
							if hashes[i] != want || bad.At(i) == valid {
								t.Fatalf("%s with %s, keys %v, sel %v: row %d (%v) folds to %x NULL %v, HashKeys %x valid %v",
									where, other, cols, sel != nil, r, rows[r], hashes[i], bad.At(i), want, valid)
							}
						}
					}
				}
				PutVecBatch(vb)
			}
		}
	}
	if len(checked) != 5 {
		t.Errorf("vectors of %d classes checked, want all 5", len(checked))
	}
}

// TestHashRowColsMatchesFNV: the word of a TEXT or BYTEA cell is FNV-1a,
// 64 bit, of its bytes, as hash/fnv computes it, and a row's key hash is
// the documented fold of its columns' words, P = (rotl27(P) + w) · golden
// from P = 0, over any key columns in any order.
func TestHashRowColsMatchesFNV(t *testing.T) {
	fnvOf := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		return h.Sum64()
	}
	for _, s := range []string{"", "x", "a ", "héllo wörld", string([]byte{0, 255, 7})} {
		for _, d := range []Datum{NewString(s), NewBytes([]byte(s))} {
			if got, want := KeyWord(&d), fnvOf(s); got != want {
				t.Errorf("KeyWord(%s %q) = %#x, hash/fnv gives %#x", d.K, s, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(18))
	n := 100000
	if testing.Short() {
		n = 10000
	}
	for i := 0; i < n; i++ {
		r := make(Row, 1+rng.Intn(6))
		for j := range r {
			if r[j] = keyDatums(rng); rng.Intn(4) == 0 {
				b := make([]byte, rng.Intn(24))
				rng.Read(b)
				r[j] = NewString(string(b))
			}
		}
		var cols []int
		for j := rng.Intn(4); j > 0; j-- {
			cols = append(cols, rng.Intn(len(r)))
		}
		var want uint64
		wantOK := true
		for _, c := range cols {
			w := KeyWord(&r[c])
			if k := r[c].K; k == KindString || k == KindBytes {
				w = fnvOf(r[c].S)
			}
			want = (bits.RotateLeft64(want, 27) + w) * 0x9e3779b97f4a7c15
			wantOK = wantOK && !r[c].IsNull()
		}
		if got, ok := HashKeys(r, cols); got != want || ok != wantOK {
			t.Fatalf("HashKeys(%v, %v) = %#x ok %v, the fold gives %#x ok %v", r, cols, got, ok, want, wantOK)
		}
	}
}

// balance places keys, 500 at a time (one COPY batch of the load
// workload), on n segments, and returns the busiest segment's share over
// the mean share, averaged over the batches and at its worst.
func balance(keys []int64, n int, place func(k int64, n int) int) (mean, worst float64) {
	const batch = 500
	count := make([]int, n)
	batches := 0
	for at := 0; at+batch <= len(keys); at += batch {
		clear(count)
		for _, k := range keys[at : at+batch] {
			count[place(k, n)]++
		}
		r := float64(maxOf(count)) * float64(n) / batch
		mean += r
		worst = max(worst, r)
		batches++
	}
	return mean / float64(batches), worst
}

func maxOf(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// TestPlacementBalance: a 500-row batch spreads over 3 or 4 segments
// nearly as round-robin would, for TPC-H's l_orderkey (dbgen's sparse
// order keys, 1 to 7 lines each) and for integer keys at strides of 2,
// 4, 8 and 1000. The two placements the one hash replaced would fail
// these bars: FNV-1a over the key's bytes, modulo n, skews strided keys
// (a batch at stride 4 had its busiest segment at 1.54 times the mean),
// and a well-mixed hash modulo n places at random, which costs small
// batches on either shape.
func TestPlacementBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var dense []int64
	for i := 0; len(dense) < 100000; i++ {
		okey := int64(i/8)*32 + int64(i%8) + 1
		for range rng.Intn(7) + 1 {
			dense = append(dense, okey)
		}
	}
	strided := map[int64][]int64{}
	for _, s := range []int64{2, 4, 8, 1000} {
		for k := int64(1); k <= 100000; k++ {
			strided[s] = append(strided[s], k*s)
		}
	}
	fold := func(k int64, n int) int {
		p, _ := HashKeys(Row{NewInt64(k)}, []int{0})
		return SegmentOf(p, n)
	}
	byteFNV := func(k int64, n int) int {
		h := uint64(14695981039346656037)
		for _, b := range binary.BigEndian.AppendUint64([]byte{2}, uint64(k)) {
			h = (h ^ uint64(b)) * 1099511628211
		}
		return int(h % uint64(n))
	}
	mixMod := func(k int64, n int) int { return int(Mix64(Mix64(uint64(k))) % uint64(n)) }
	passes := func(place func(int64, int) int, n int) (denseOK, strideOK bool, report string) {
		mean, _ := balance(dense, n, place)
		denseOK = mean <= 1.11
		report = fmt.Sprintf("dense %.3f", mean)
		strideOK = true
		for _, s := range []int64{2, 4, 8, 1000} {
			mean, worst := balance(strided[s], n, place)
			strideOK = strideOK && mean <= 1.04 && worst <= 1.08
			report += fmt.Sprintf(", stride %d %.3f/%.3f", s, mean, worst)
		}
		return denseOK, strideOK, report
	}
	for _, n := range []int{3, 4} {
		d, s, report := passes(fold, n)
		t.Logf("%d segments, SegmentOf(HashKeys): %s", n, report)
		if !d || !s {
			t.Errorf("%d segments, SegmentOf(HashKeys): %s; want dense ≤ 1.11, strides ≤ 1.04 mean and 1.08 worst", n, report)
		}
		// The bars tell the placements apart.
		_, s, report = passes(byteFNV, n)
		t.Logf("%d segments, byte FNV modulo n: %s", n, report)
		if s {
			t.Errorf("%d segments, byte FNV modulo n passes the stride bars: %s", n, report)
		}
		d, s, report = passes(mixMod, n)
		t.Logf("%d segments, mixed hash modulo n: %s", n, report)
		if d || s {
			t.Errorf("%d segments, a mixed hash modulo n passes a bar: %s", n, report)
		}
	}
}
