package types

import (
	"math/rand"
	"reflect"
	"testing"
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

// vecVariants builds every encoding of the same logical column.
func vecVariants(vals []Datum) []Vector {
	flat := Vector{Enc: VecFlat, N: len(vals), Values: append([]Datum(nil), vals...)}
	var raw []byte
	for _, d := range vals {
		raw = EncodeDatum(raw, d)
	}
	rawVec := Vector{Enc: VecRaw, N: len(vals), Raw: raw}
	var rle Vector
	rle.Enc = VecRLE
	rle.N = len(vals)
	for i := 0; i < len(vals); i++ {
		if len(rle.Values) > 0 && vals[i] == rle.Values[len(rle.Values)-1] {
			rle.Runs[len(rle.Runs)-1]++
			continue
		}
		rle.Values = append(rle.Values, vals[i])
		rle.Runs = append(rle.Runs, 1)
	}
	var dict Vector
	dict.Enc = VecDict
	dict.N = len(vals)
	seen := map[Datum]int32{}
	for _, d := range vals {
		c, ok := seen[d]
		if !ok {
			c = int32(len(dict.Values))
			seen[d] = c
			dict.Values = append(dict.Values, d)
		}
		dict.Codes = append(dict.Codes, c)
	}
	return []Vector{flat, rawVec, rle, dict}
}

// TestVectorDecodeAllEncodings checks Decode yields the original values
// for every encoding of the same column.
func TestVectorDecodeAllEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]Datum, 257)
	for i := range vals {
		vals[i] = randDatum(rng)
	}
	for _, v := range vecVariants(vals) {
		got, err := v.Decode(nil)
		if err != nil {
			t.Fatalf("enc %d: %v", v.Enc, err)
		}
		if !reflect.DeepEqual(got, vals) {
			t.Errorf("enc %d: decode mismatch", v.Enc)
		}
	}
}

// TestMaterializeHonorsSelection checks Materialize with and without a
// selection vector against a straightforward per-row reference, for
// every encoding.
func TestMaterializeHonorsSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vals := make([]Datum, 100)
	for i := range vals {
		vals[i] = randDatum(rng)
	}
	sels := [][]int32{nil, {}, {0}, {99}, {0, 1, 2, 97, 98, 99}, {13, 14, 15, 16, 50}}
	var everyThird []int32
	for i := int32(0); i < 100; i += 3 {
		everyThird = append(everyThird, i)
	}
	sels = append(sels, everyThird)
	for _, v := range vecVariants(vals) {
		for si, sel := range sels {
			vb := GetVecBatch(1)
			vb.Cols[0] = v
			vb.SetLen(v.N)
			vb.Sel = sel
			b := GetBatch(0)
			if err := vb.Materialize(b); err != nil {
				t.Fatalf("enc %d sel %d: %v", v.Enc, si, err)
			}
			want := len(vals)
			if sel != nil {
				want = len(sel)
			}
			if b.Len() != want {
				t.Fatalf("enc %d sel %d: got %d rows, want %d", v.Enc, si, b.Len(), want)
			}
			for oi := 0; oi < b.Len(); oi++ {
				ri := oi
				if sel != nil {
					ri = int(sel[oi])
				}
				if got := b.Row(oi)[0]; got != vals[ri] {
					t.Errorf("enc %d sel %d row %d: got %v want %v", v.Enc, si, oi, got, vals[ri])
				}
			}
			PutBatch(b)
			PutVecBatch(vb)
		}
	}
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
// whereas a vector the batch owns keeps its capacity for reuse. The
// next user here does what the storage decoders do: append.
func TestPooledBatchDropsSharedVectors(t *testing.T) {
	cachedVals := []Datum{NewInt64(1), NewString("kept"), NewInt64(3)}
	cached := []Vector{
		{Enc: VecFlat, N: 3, Values: cachedVals, Shared: true},
		{Enc: VecRaw, N: 1, Raw: EncodeDatum(nil, NewInt64(9)), Shared: true},
		{Enc: VecRLE, N: 3, Values: []Datum{NewInt64(5)}, Runs: []int32{3}, Shared: true},
		{Enc: VecDict, N: 2, Values: []Datum{NewString("d")}, Codes: []int32{0, 0}, Shared: true},
	}
	want := make([]Vector, len(cached))
	for i, v := range cached {
		want[i] = Vector{Enc: v.Enc, N: v.N, Raw: append([]byte(nil), v.Raw...), Values: append([]Datum(nil), v.Values...),
			Runs: append([]int32(nil), v.Runs...), Codes: append([]int32(nil), v.Codes...), Shared: true}
	}
	vb := GetVecBatch(len(cached) + 1)
	copy(vb.Cols, cached)
	owned := &vb.Cols[len(cached)]
	owned.Values = append(owned.Values, NewInt64(7), NewInt64(8))
	owned.N = 2
	ownedCap := cap(owned.Values)
	PutVecBatch(vb)

	// Whichever batch the pool hands out next — the same object in
	// practice — nothing appended to it may land in cached memory.
	for round := 0; round < 4; round++ {
		next := GetVecBatch(len(cached) + 1)
		for j := range next.Cols {
			v := &next.Cols[j]
			if v.Shared || v.N != 0 || len(v.Values)+len(v.Runs)+len(v.Codes)+len(v.Raw) != 0 {
				t.Fatalf("round %d col %d: reused vector not empty: %+v", round, j, v)
			}
			if round == 0 && next == vb && j < len(cached) && cap(v.Values)+cap(v.Runs)+cap(v.Codes) != 0 {
				t.Fatalf("col %d kept capacity of slices it shared with the cache", j)
			}
			v.Values = append(v.Values, NewString("overwritten"), NewString("overwritten"), NewString("overwritten"))
			v.Runs = append(v.Runs, -1, -1, -1)
			v.Codes = append(v.Codes, -1, -1, -1)
		}
		if round == 0 && next == vb && cap(next.Cols[len(cached)].Values) < ownedCap {
			t.Error("a vector the batch owned lost its capacity")
		}
		for j := range next.Cols {
			next.Cols[j].Values, next.Cols[j].Runs, next.Cols[j].Codes = next.Cols[j].Values[:0], next.Cols[j].Runs[:0], next.Cols[j].Codes[:0]
		}
		PutVecBatch(next)
	}
	for i := range cached {
		got := cached[i]
		if !reflect.DeepEqual(got.Values, want[i].Values) || !reflect.DeepEqual(got.Runs, want[i].Runs) ||
			!reflect.DeepEqual(got.Codes, want[i].Codes) || !reflect.DeepEqual(got.Raw, want[i].Raw) {
			t.Errorf("cached vector %d was written through a pooled batch: %+v", i, got)
		}
	}
}

// TestFlatBuilderSharesOneStringBacking: a column's strings are
// substrings of one allocation, in order, NULLs and non-strings
// untouched, and an exact build allocates exactly the rows asked for.
func TestFlatBuilderSharesOneStringBacking(t *testing.T) {
	vals := []Datum{NewString("alpha"), Null, NewString(""), NewBytes([]byte("be")), NewInt64(4), NewString("gamma")}
	var enc []byte
	for _, d := range vals {
		enc = EncodeDatum(enc, d)
	}
	for _, exact := range []bool{false, true} {
		var v Vector
		var b FlatBuilder
		b.Reset(&v, len(vals), exact)
		for pos := 0; pos < len(enc); {
			n, err := b.AppendEncoded(enc[pos:])
			if err != nil {
				t.Fatal(err)
			}
			pos += n
		}
		b.Finish()
		if v.Enc != VecFlat || v.N != len(vals) || !reflect.DeepEqual(v.Values, vals) {
			t.Fatalf("exact=%v: built %+v", exact, v)
		}
		if exact && cap(v.Values) != len(vals) {
			t.Errorf("exact build has capacity %d for %d rows", cap(v.Values), len(vals))
		}
		if got, want := v.MemBytes(), int64(cap(v.Values))*datumSize+int64(len("alphabegamma")); got != want {
			t.Errorf("MemBytes = %d, want %d", got, want)
		}
	}
}
