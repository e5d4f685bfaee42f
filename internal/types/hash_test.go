package types

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// refHashDatum and refHashRowCols are the placement hash as it was
// written before it was inlined — hash/fnv fed through the hash.Hash
// interface — kept as the reference HashRowCols must equal bit for bit:
// every stored row, direct dispatch and colocated join depends on the
// values. Every NaN is written with the bits of math.NaN(), which a
// parsed 'NaN' has.
func refHashDatum(h hash.Hash, d Datum) {
	var tmp [10]byte
	switch d.K {
	case KindNull:
		h.Write([]byte{0})
	case KindBool:
		h.Write([]byte{1, byte(d.I)})
	case KindInt32, KindInt64:
		tmp[0] = 2
		binary.BigEndian.PutUint64(tmp[1:9], uint64(d.I))
		h.Write(tmp[:9])
	case KindFloat64:
		tmp[0] = 3
		f := d.F + 0 // -0.0 + 0 is 0.0
		if math.IsNaN(f) {
			f = math.NaN()
		}
		binary.BigEndian.PutUint64(tmp[1:9], math.Float64bits(f))
		h.Write(tmp[:9])
	case KindDecimal:
		u, sc := d.I, d.Scale
		for sc > 0 && u%10 == 0 {
			u /= 10
			sc--
		}
		if sc == 0 {
			tmp[0] = 2
			binary.BigEndian.PutUint64(tmp[1:9], uint64(u))
			h.Write(tmp[:9])
			return
		}
		tmp[0] = 4
		tmp[1] = byte(sc)
		binary.BigEndian.PutUint64(tmp[2:10], uint64(u))
		h.Write(tmp[:10])
	case KindString, KindBytes:
		h.Write([]byte{5})
		h.Write([]byte(d.S))
	case KindDate:
		tmp[0] = 6
		binary.BigEndian.PutUint64(tmp[1:9], uint64(d.I))
		h.Write(tmp[:9])
	}
}

func refHashRowCols(r Row, cols []int) uint64 {
	h := fnv.New64a()
	if len(cols) == 0 {
		for _, d := range r {
			refHashDatum(h, d)
		}
		return h.Sum64()
	}
	for _, c := range cols {
		refHashDatum(h, r[c])
	}
	return h.Sum64()
}

// genDatum draws a datum of any kind, NULL included; decimals often end
// in zeros, which the hash strips.
func genDatum(rng *rand.Rand) Datum {
	switch rng.Intn(10) {
	case 0:
		return Null
	case 1:
		return NewBool(rng.Intn(2) == 0)
	case 2:
		return NewInt32(int32(rng.Uint32()))
	case 3:
		return NewInt64(int64(rng.Uint64()))
	case 4:
		return NewFloat64(rng.NormFloat64() * 1e6)
	case 5:
		return NewDecimal(rng.Int63n(1e12)-5e11, int8(rng.Intn(MaxDecimalScale+1)))
	case 6:
		return NewDecimal((rng.Int63n(2000)-1000)*pow10[rng.Intn(6)], int8(rng.Intn(MaxDecimalScale+1)))
	case 7:
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		return NewString(string(b))
	case 8:
		b := make([]byte, rng.Intn(8))
		rng.Read(b)
		return NewBytes(b)
	default:
		return NewDate(int32(rng.Intn(40000) - 5000))
	}
}

// TestHashRowColsMatchesFNV: the inlined placement hash equals the
// hash/fnv walk it replaced, value for value.
func TestHashRowColsMatchesFNV(t *testing.T) {
	check := func(r Row, cols []int) {
		t.Helper()
		if got, want := HashRowCols(r, cols), refHashRowCols(r, cols); got != want {
			t.Fatalf("HashRowCols(%v, %v) = %#x, hash/fnv gives %#x", r, cols, got, want)
		}
	}
	every := Row{
		Null, NewBool(false), NewBool(true), NewInt32(-7), NewInt64(math.MinInt64), NewInt64(0),
		NewFloat64(0), NewFloat64(math.Copysign(0, -1)), NewFloat64(math.Inf(1)), NewFloat64(2.5),
		NewFloat64(math.NaN()), NewFloat64(math.Float64frombits(0xfff8000000000000)),
		NewDecimal(700, 2), NewDecimal(750, 2), NewDecimal(75, 1), NewDecimal(0, 4), NewDecimal(-1230000, 8), NewDecimal(5, 0),
		NewString(""), NewString("x"), NewString("héllo wörld"), NewBytes([]byte{0, 255, 7}), NewDate(0), NewDate(-400),
	}
	check(Row{}, nil)
	check(every, nil)
	check(every, []int{})
	for i := range every {
		check(every, []int{i})
		check(every, []int{i, (i * 7) % len(every), 0})
	}
	if HashRowCols(Row{NewDecimal(700, 2)}, nil) != HashRowCols(Row{NewInt32(7)}, nil) {
		t.Error("7.00 and 7 hash apart")
	}
	if HashRowCols(Row{NewFloat64(math.Copysign(0, -1))}, nil) != HashRowCols(Row{NewFloat64(0)}, nil) {
		t.Error("-0.0 and 0.0 hash apart")
	}
	if HashRowCols(Row{NewFloat64(math.Float64frombits(0xfff8000000000000))}, nil) != HashRowCols(Row{NewFloat64(math.NaN())}, nil) {
		t.Error("two NaNs hash apart")
	}
	rng := rand.New(rand.NewSource(18))
	n := 100000
	if testing.Short() {
		n = 10000
	}
	for i := 0; i < n; i++ {
		r := make(Row, 1+rng.Intn(6))
		for j := range r {
			r[j] = genDatum(rng)
		}
		var cols []int
		for j := rng.Intn(4); j > 0; j-- {
			cols = append(cols, rng.Intn(len(r)))
		}
		check(r, cols)
	}
}
