package types_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hawq/internal/testutil"
	. "hawq/internal/types"
)

// randDatum returns a pseudo-random datum spanning every kind the
// storage formats write, including NULLs.
func randDatum(rng *rand.Rand) Datum {
	switch rng.Intn(7) {
	case 0:
		return Null
	case 1:
		return NewInt64(rng.Int63n(1000) - 500)
	case 2:
		return Datum{K: KindInt32, I: int64(int32(rng.Int31n(100)))}
	case 3:
		return Datum{K: KindFloat64, F: rng.NormFloat64()}
	case 4:
		return Datum{K: KindDecimal, Scale: 2, I: rng.Int63n(100000)}
	case 5:
		return Datum{K: KindDate, I: int64(rng.Intn(3650))}
	default:
		return NewString(string(rune('a' + rng.Intn(26))))
	}
}

// typedColumns returns one column per storage class, with and without
// NULLs, plus the columns only the Mixed fallback can hold.
func typedColumns(rng *rand.Rand, n int) map[string][]Datum {
	gen := map[string]func() Datum{
		"int64":   func() Datum { return NewInt64(rng.Int63n(50) - 25) },
		"int32":   func() Datum { return NewInt32(int32(rng.Intn(9))) },
		"bool":    func() Datum { return NewBool(rng.Intn(2) == 0) },
		"date":    func() Datum { return NewDate(int32(rng.Intn(40))) },
		"decimal": func() Datum { return NewDecimal(rng.Int63n(5000), 2) },
		"float":   func() Datum { return NewFloat64(float64(rng.Intn(7)) / 2) },
		"string":  func() Datum { return NewString(string(rune('a' + rng.Intn(5)))) },
		"bytes":   func() Datum { return NewBytes([]byte{byte(rng.Intn(3))}) },
		"scales":  func() Datum { return NewDecimal(rng.Int63n(50), int8(1+rng.Intn(2))) },
		"anything": func() Datum {
			return randDatum(rng)
		},
	}
	cols := map[string][]Datum{"all-null": make([]Datum, n)}
	for name, g := range gen {
		plain, nulls := make([]Datum, n), make([]Datum, n)
		for i := range plain {
			plain[i] = g()
			if i%3 == 1 || i < 2 {
				nulls[i] = Null
			} else {
				nulls[i] = g()
			}
		}
		cols[name], cols[name+"+null"] = plain, nulls
	}
	return cols
}

var allEncs = []VecEnc{VecFlat, VecRLE, VecDict}

// sameDatums compares as canonical encodings: NaN is a legal float.
func sameDatums(a, b []Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(EncodeDatum(nil, a[i])) != string(EncodeDatum(nil, b[i])) {
			return false
		}
	}
	return true
}

// TestVectorDecodeAllEncodings: every encoding of every kind of column
// reads back the values it was built from, through Datum, through
// AppendEncoded (the bytes EncodeDatum writes) and with the storage
// class the values call for — typed unless kinds or scales differ.
func TestVectorDecodeAllEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	wantClass := map[string]VecClass{
		"int64": ClassInt, "int32": ClassInt, "bool": ClassInt, "date": ClassInt, "decimal": ClassInt,
		"float": ClassFloat, "string": ClassStr, "bytes": ClassStr,
		"scales": ClassMixed, "anything": ClassMixed, "all-null": ClassNull,
	}
	for name, vals := range typedColumns(rng, 257) {
		for _, enc := range allEncs {
			v := testutil.Vector(enc, vals)
			if got := testutil.VectorRows(&v); !sameDatums(got, vals) {
				t.Errorf("%s enc %d: rows differ", name, enc)
			}
			base := name
			if len(name) > 5 && name[len(name)-5:] == "+null" {
				base = name[:len(name)-5]
			}
			if v.Class() != wantClass[base] {
				t.Errorf("%s enc %d: class %d, want %d", name, enc, v.Class(), wantClass[base])
			}
			if v.Class() != ClassMixed && len(v.Values) != 0 {
				t.Errorf("%s enc %d: a typed vector holds %d Datums", name, enc, len(v.Values))
			}
			for e := 0; e < v.Entries(); e++ {
				if v.Null(e) != v.Datum(e).IsNull() {
					t.Fatalf("%s enc %d entry %d: Null disagrees with Datum", name, enc, e)
				}
			}
		}
	}
}

// TestMaterializeHonorsSelection checks Materialize — of every column,
// and of a column list that drops, reorders and repeats them — RowReader
// and EntryIndex with and without a selection vector against a
// straightforward per-row reference, for every encoding and class.
func TestMaterializeHonorsSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sels := [][]int32{nil, {}, {0}, {99}, {0, 1, 2, 97, 98, 99}, {13, 14, 15, 16, 50}}
	var everyThird []int32
	for i := int32(0); i < 100; i += 3 {
		everyThird = append(everyThird, i)
	}
	sels = append(sels, everyThird)
	var rr RowReader
	for name, vals := range typedColumns(rng, 100) {
		for _, enc := range allEncs {
			for si, sel := range sels {
				vb := GetVecBatch(2)
				rev := slices.Clone(vals)
				slices.Reverse(rev)
				data := [][]Datum{vals, rev}
				vb.Cols[0] = testutil.Vector(enc, vals)
				vb.Cols[1] = testutil.Vector(VecFlat, rev)
				vb.SetLen(len(vals))
				if sel != nil {
					vb.Sel = append(make([]int32, 0, len(sel)), sel...)
				}
				want := len(vals)
				if sel != nil {
					want = len(sel)
				}
				b := GetBatch(0)
				for _, cols := range [][]int{nil, {1, 0, 0}, {0}, {}} {
					vb.Materialize(b, cols)
					if cols == nil {
						cols = []int{0, 1}
					}
					if b.Len() != want || b.Width() != len(cols) {
						t.Fatalf("%s enc %d sel %d cols %v: got %d rows of %d cells, want %d", name, enc, si, cols, b.Len(), b.Width(), want)
					}
					for oi := 0; oi < b.Len(); oi++ {
						ri := oi
						if sel != nil {
							ri = int(sel[oi])
						}
						for j, c := range cols {
							if got := b.Row(oi)[j]; !sameDatums([]Datum{got}, data[c][ri:ri+1]) {
								t.Errorf("%s enc %d sel %d cols %v row %d cell %d: got %v want %v", name, enc, si, cols, oi, j, got, data[c][ri])
							}
						}
					}
				}
				rr.Reset(vb, []int{0})
				for oi := 0; oi < want; oi++ {
					ri := oi
					if sel != nil {
						ri = int(sel[oi])
					}
					row := rr.Row(oi)
					if !sameDatums(row[:1], vals[ri:ri+1]) || !row[1].IsNull() {
						t.Errorf("%s enc %d sel %d row %d: reader gave %v", name, enc, si, oi, row)
					}
				}
				PutBatch(b)
				PutVecBatch(vb)
			}
		}
	}
}

// TestNarrowAsksEachEntryOnce: Narrow keeps exactly the rows whose entry
// passes, asks a run or dictionary entry once however many rows share
// it, and leaves no selection when every row passes.
func TestNarrowAsksEachEntryOnce(t *testing.T) {
	vals := make([]Datum, 90)
	for i := range vals {
		vals[i] = NewInt64(int64(i / 30))
	}
	for _, enc := range allEncs {
		for _, sel := range [][]int32{nil, {1, 29, 30, 31, 89}} {
			vb := GetVecBatch(1)
			vb.Cols[0] = testutil.Vector(enc, vals)
			vb.SetLen(len(vals))
			vb.Sel = sel
			asked := 0
			vb.Narrow(0, func(e int) bool { asked++; return vb.Cols[0].Ints[e] != 1 })
			var want []int32
			for i := range vals {
				if vals[i].I != 1 && (sel == nil || containsRow(sel, int32(i))) {
					want = append(want, int32(i))
				}
			}
			if !reflect.DeepEqual(vb.Sel, want) {
				t.Errorf("enc %d: kept %v, want %v", enc, vb.Sel, want)
			}
			if enc != VecFlat && asked > 3 {
				t.Errorf("enc %d: asked %d times about 3 entries", enc, asked)
			}
			vb.Narrow(0, func(int) bool { return true })
			if !reflect.DeepEqual(vb.Sel, want) {
				t.Errorf("enc %d: a pass-all narrowing changed the selection to %v", enc, vb.Sel)
			}
			PutVecBatch(vb)
		}
	}
	vb := GetVecBatch(1)
	vb.Cols[0] = testutil.Vector(VecFlat, vals)
	vb.SetLen(len(vals))
	vb.Narrow(0, func(int) bool { return true })
	if vb.Sel != nil {
		t.Errorf("every row passed and a selection of %d rows was left", len(vb.Sel))
	}
	PutVecBatch(vb)
}

func containsRow(sel []int32, r int32) bool {
	for _, x := range sel {
		if x == r {
			return true
		}
	}
	return false
}

// TestSkipDatumMatchesDecode checks SkipDatum steps exactly as far as
// DecodeDatum for every kind.
func TestSkipDatumMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var buf []byte
	var sizes []int
	for i := 0; i < 500; i++ {
		before := len(buf)
		buf = EncodeDatum(buf, randDatum(rng))
		sizes = append(sizes, len(buf)-before)
	}
	pos := 0
	for i, want := range sizes {
		n, err := SkipDatum(buf[pos:])
		if err != nil {
			t.Fatalf("datum %d: %v", i, err)
		}
		if n != want {
			t.Fatalf("datum %d: skip %d bytes, decode consumed %d", i, n, want)
		}
		pos += n
	}
	if pos != len(buf) {
		t.Fatalf("skipped %d of %d bytes", pos, len(buf))
	}
}

// TestVecBatchPoolDoublePutPanics pins the double-return guard.
func TestVecBatchPoolDoublePutPanics(t *testing.T) {
	vb := GetVecBatch(1)
	PutVecBatch(vb)
	defer func() {
		if recover() == nil {
			t.Fatal("second PutVecBatch did not panic")
		}
	}()
	PutVecBatch(vb)
}

// TestVecPoolCountersBalance checks the gauge arithmetic.
func TestVecPoolCountersBalance(t *testing.T) {
	base := VecPoolInUse()
	vb := GetVecBatch(2)
	if got := VecPoolInUse(); got != base+1 {
		t.Fatalf("in_use after get = %d, want %d", got, base+1)
	}
	PutVecBatch(vb)
	if got := VecPoolInUse(); got != base {
		t.Fatalf("in_use after put = %d, want %d", got, base)
	}
}

// TestPooledBatchDropsSharedVectors: a vector the block cache shares
// travels in a pooled batch like any other, but when the batch goes back
// to the pool the next user must get fresh slices, not the cache's —
// typed slices, null bitmap, runs and codes alike — whereas a vector the
// batch owns keeps its capacity for reuse. The next user here does what
// the storage decoders do: build into the vector it was handed.
func TestPooledBatchDropsSharedVectors(t *testing.T) {
	cached := []Vector{
		testutil.Vector(VecFlat, []Datum{NewInt64(1), Null, NewInt64(3)}),
		testutil.Vector(VecFlat, []Datum{NewFloat64(1.5), NewFloat64(2.5)}),
		testutil.Vector(VecFlat, []Datum{NewString("kept"), Null, NewString("too")}),
		testutil.Vector(VecFlat, []Datum{NewInt64(1), NewString("mixed")}),
		testutil.Vector(VecRLE, []Datum{NewDate(5), NewDate(5), NewDate(5)}),
		testutil.Vector(VecDict, []Datum{NewString("d"), NewString("d")}),
	}
	want := make([][]Datum, len(cached))
	for i := range cached {
		cached[i].Shared = true
		want[i] = testutil.VectorRows(&cached[i])
	}
	vb := GetVecBatch(len(cached) + 1)
	copy(vb.Cols, cached)
	owned := &vb.Cols[len(cached)]
	var ob VecBuilder
	ob.Reset(owned, 2, false)
	ob.Append(NewInt64(7))
	ob.Append(NewInt64(8))
	ob.Finish()
	ownedCap := cap(owned.Ints)
	PutVecBatch(vb)

	// Whichever batch the pool hands out next — the same object in
	// practice — nothing built into it may land in cached memory.
	overwrite := []Datum{NewInt64(-1), NewInt64(-1), NewInt64(-1), Null}
	for round := 0; round < 4; round++ {
		next := GetVecBatch(len(cached) + 1)
		for j := range next.Cols {
			v := &next.Cols[j]
			if v.Shared || v.N != 0 || v.Str != "" ||
				len(v.Ints)+len(v.Floats)+len(v.Offs)+len(v.Nulls)+len(v.Values)+len(v.Runs)+len(v.Codes) != 0 {
				t.Fatalf("round %d col %d: reused vector not empty: %+v", round, j, v)
			}
			if round == 0 && next == vb && j < len(cached) &&
				cap(v.Ints)+cap(v.Floats)+cap(v.Offs)+cap(v.Nulls)+cap(v.Values)+cap(v.Runs)+cap(v.Codes) != 0 {
				t.Fatalf("col %d kept capacity of slices it shared with the cache", j)
			}
			if round == 0 && next == vb && j == len(cached) && cap(v.Ints) < ownedCap {
				t.Error("a vector the batch owned lost its capacity")
			}
			var b VecBuilder
			b.Reset(v, len(overwrite), false)
			for _, d := range overwrite {
				b.Append(d)
			}
			b.Finish()
			v.Runs = append(v.Runs, -1, -1, -1)
			v.Codes = append(v.Codes, -1, -1, -1)
		}
		PutVecBatch(next)
	}
	for i := range cached {
		if got := testutil.VectorRows(&cached[i]); !sameDatums(got, want[i]) {
			t.Errorf("cached vector %d was written through a pooled batch: %v", i, got)
		}
	}
}

// TestFlatBuilderSharesOneStringBacking: a column's strings are slices
// of one allocation, in order; an exact build allocates exactly the
// entries asked for; MemBytes is the bytes actually held, class by
// class (the block cache's account depends on it); and a builder handed
// a second kind or scale falls back to Datums without losing a value.
func TestFlatBuilderSharesOneStringBacking(t *testing.T) {
	build := func(vals []Datum, exact bool) Vector {
		var enc []byte
		for _, d := range vals {
			enc = EncodeDatum(enc, d)
		}
		var v Vector
		var b VecBuilder
		b.Reset(&v, len(vals), exact)
		for pos := 0; pos < len(enc); {
			n, err := b.AppendEncoded(enc[pos:])
			if err != nil {
				t.Fatal(err)
			}
			pos += n
		}
		b.Finish()
		if v.Enc != VecFlat || v.N != len(vals) || !sameDatums(testutil.VectorRows(&v), vals) {
			t.Fatalf("exact=%v: built %+v from %v", exact, v, vals)
		}
		return v
	}
	strs := []Datum{NewString("alpha"), Null, NewString(""), NewString("be"), NewString("gamma")}
	ints := []Datum{Null, Null, NewDecimal(125, 2), NewDecimal(-7, 2), Null}
	floats := []Datum{NewFloat64(math.NaN()), NewFloat64(-0.0), NewFloat64(2)}
	mixed := []Datum{NewString("alpha"), Null, NewBytes([]byte("be")), NewInt64(4), NewDecimal(1, 1), NewString("gamma")}
	for _, exact := range []bool{false, true} {
		v := build(strs, exact)
		if v.Class() != ClassStr || v.Str != "alphabegamma" || len(v.Offs) != len(strs)+1 {
			t.Fatalf("strings built as %+v", v)
		}
		if exact && (cap(v.Offs) != len(strs)+1 || v.MemBytes() != int64(4*(len(strs)+1)+len(v.Str)+8*cap(v.Nulls))) {
			t.Errorf("exact strings: cap(Offs) %d, MemBytes %d", cap(v.Offs), v.MemBytes())
		}
		v = build(ints, exact)
		if v.Class() != ClassInt || v.Kind != KindDecimal || v.Scale != 2 || len(v.Nulls) != 1 || v.Nulls[0] != 0b10011 {
			t.Fatalf("decimals built as %+v", v)
		}
		if exact && (cap(v.Ints) != len(ints) || v.MemBytes() != int64(8*len(ints)+8*cap(v.Nulls))) {
			t.Errorf("exact decimals: cap(Ints) %d, MemBytes %d", cap(v.Ints), v.MemBytes())
		}
		v = build(floats, exact)
		if v.Class() != ClassFloat || len(v.Nulls) != 0 {
			t.Fatalf("floats built as %+v", v)
		}
		if exact && v.MemBytes() != int64(8*len(floats)) {
			t.Errorf("exact floats: MemBytes %d", v.MemBytes())
		}
		v = build(mixed, exact)
		if v.Class() != ClassMixed || len(v.Ints)+len(v.Offs)+len(v.Nulls) != 0 || v.Str != "" {
			t.Fatalf("mixed kinds built as %+v", v)
		}
		if want := int64(cap(v.Values))*int64(reflect.TypeOf(Datum{}).Size()) + int64(len("alphabegamma")); exact && v.MemBytes() != want {
			t.Errorf("exact mixed: MemBytes %d, want %d", v.MemBytes(), want)
		}
	}
}

// TestBuilderDemotesLate: a column turns Mixed at whatever entry first
// breaks its kind or scale, however many typed entries and however few
// NULL bits it holds by then. The null bitmap of a vector being built
// stops at its last NULL, so a demotion past entry 64 reads entries the
// bitmap does not reach.
func TestBuilderDemotesLate(t *testing.T) {
	repeat := func(head []Datum, d Datum, n int, tail ...Datum) []Datum {
		out := append([]Datum{}, head...)
		for i := 0; i < n; i++ {
			out = append(out, d)
		}
		return append(out, tail...)
	}
	cols := map[string][]Datum{
		"null, 100 decimals, another scale": repeat([]Datum{Null}, NewDecimal(150, 2), 100, NewDecimal(25, 1), Null),
		"null, 100 ints, a decimal":         repeat([]Datum{Null}, NewInt64(7), 100, NewDecimal(25, 1)),
		"null, 100 floats, an int":          repeat([]Datum{Null}, NewFloat64(0.5), 100, NewInt64(1)),
		"null, 100 strings, an int":         repeat([]Datum{Null}, NewString("ab"), 100, NewInt64(1), NewString("c")),
		"nulls up to 130, a date":           repeat(repeat(nil, Null, 65, NewInt64(3)), Null, 64, NewDate(9)),
		"one string, an int":                {NewString("s"), NewInt64(1)},
		"no null, 100 ints, a string":       repeat(nil, NewInt32(4), 100, NewString("x")),
	}
	for name, vals := range cols {
		for _, exact := range []bool{false, true} {
			var enc []byte
			for _, d := range vals {
				enc = EncodeDatum(enc, d)
			}
			var byDatum, byBytes Vector
			var b VecBuilder
			b.Reset(&byDatum, len(vals), exact)
			for _, d := range vals {
				b.Append(d)
			}
			b.Finish()
			b.Reset(&byBytes, 0, exact)
			for pos := 0; pos < len(enc); {
				n, err := b.AppendEncoded(enc[pos:])
				if err != nil {
					t.Fatal(err)
				}
				pos += n
			}
			b.Finish()
			// The vector holds copies: the buffer it was decoded from may
			// be reused.
			for i := range enc {
				enc[i] = 0xEE
			}
			for _, v := range []*Vector{&byDatum, &byBytes} {
				if v.Class() != ClassMixed || v.N != len(vals) || !sameDatums(testutil.VectorRows(v), vals) {
					t.Errorf("%s (exact=%v): class %d, %d rows, values differ", name, exact, v.Class(), v.N)
				}
				if len(v.Ints)+len(v.Floats)+len(v.Offs)+len(v.Nulls) != 0 || v.Str != "" {
					t.Errorf("%s (exact=%v): a Mixed vector kept typed storage", name, exact)
				}
			}
		}
	}
}
