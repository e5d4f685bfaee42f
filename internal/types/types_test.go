package types

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDatumConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null must be null")
	}
	if d := NewBool(true); !d.Bool() || d.K != KindBool {
		t.Errorf("NewBool(true) = %+v", d)
	}
	if d := NewInt32(-7); d.Int() != -7 || d.K != KindInt32 {
		t.Errorf("NewInt32 = %+v", d)
	}
	if d := NewInt64(1 << 40); d.Int() != 1<<40 {
		t.Errorf("NewInt64 = %+v", d)
	}
	if d := NewFloat64(2.5); d.Float() != 2.5 {
		t.Errorf("NewFloat64 = %+v", d)
	}
	if d := NewDecimal(12345, 2); d.Float() != 123.45 || d.String() != "123.45" {
		t.Errorf("NewDecimal = %v (%s)", d.Float(), d)
	}
	if d := NewString("hi"); d.Str() != "hi" {
		t.Errorf("NewString = %+v", d)
	}
}

func TestDateParsingAndYear(t *testing.T) {
	d, err := ParseDate("1995-03-15")
	if err != nil {
		t.Fatal(err)
	}
	if d.Year() != 1995 {
		t.Errorf("year = %d, want 1995", d.Year())
	}
	if d.String() != "1995-03-15" {
		t.Errorf("round trip = %s", d)
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("expected error for bad date")
	}
	epoch := MustParseDate("1970-01-01")
	if epoch.I != 0 {
		t.Errorf("epoch days = %d", epoch.I)
	}
}

func TestDecimalStringNegativeAndSmall(t *testing.T) {
	cases := []struct {
		u    int64
		sc   int8
		want string
	}{
		{-7, 2, "-0.07"},
		{0, 2, "0.00"},
		{5, 0, "5"},
		{100, 2, "1.00"},
		{-12345, 4, "-1.2345"},
	}
	for _, c := range cases {
		if got := NewDecimal(c.u, c.sc).String(); got != c.want {
			t.Errorf("decimal(%d,%d) = %q, want %q", c.u, c.sc, got, c.want)
		}
	}
}

func TestParseDecimal(t *testing.T) {
	d, err := ParseDecimal("-123.456")
	if err != nil {
		t.Fatal(err)
	}
	if d.I != -123456 || d.Scale != 3 {
		t.Errorf("ParseDecimal = %+v", d)
	}
	if _, err := ParseDecimal("12x.3"); err == nil {
		t.Error("expected parse error")
	}
	d, _ = ParseDecimal("42")
	if d.I != 42 || d.Scale != 0 {
		t.Errorf("ParseDecimal(42) = %+v", d)
	}
	// Past MaxDecimalScale digits a literal rounds half away from zero,
	// as CAST to that scale does, carrying into the integer part.
	for in, want := range map[string]string{
		"0.123456785":  "0.12345679",
		"-0.123456785": "-0.12345679",
		"0.123456784":  "0.12345678",
		"-0.123456784": "-0.12345678",
		"0.999999995":  "1.00000000",
		"-0.999999995": "-1.00000000",
		"9.9999999949": "9.99999999",
	} {
		d, err := ParseDecimal(in)
		if err != nil || d.String() != want || d.Scale != MaxDecimalScale {
			t.Errorf("ParseDecimal(%s) = %v (scale %d), %v; want %s", in, d, d.Scale, err, want)
		}
	}
}

func TestCompareCrossNumeric(t *testing.T) {
	if Compare(NewInt32(7), NewInt64(7)) != 0 {
		t.Error("int32 7 != int64 7")
	}
	if Compare(NewDecimal(700, 2), NewInt64(7)) != 0 {
		t.Error("decimal 7.00 != int 7")
	}
	if Compare(NewDecimal(701, 2), NewInt64(7)) <= 0 {
		t.Error("7.01 should exceed 7")
	}
	if Compare(NewFloat64(1.5), NewDecimal(150, 2)) != 0 {
		t.Error("float 1.5 != decimal 1.50")
	}
	if Compare(Null, NewInt64(0)) != -1 || Compare(NewInt64(0), Null) != 1 {
		t.Error("NULL must sort first")
	}
	if Compare(NewString("abc"), NewString("abd")) != -1 {
		t.Error("string compare broken")
	}
	if Compare(MustParseDate("1995-01-01"), MustParseDate("1996-01-01")) != -1 {
		t.Error("date compare broken")
	}
}

func TestArithmetic(t *testing.T) {
	if got := Add(NewInt64(2), NewInt64(3)); got.Int() != 5 {
		t.Errorf("2+3 = %v", got)
	}
	if got := Mul(NewDecimal(150, 2), NewDecimal(200, 2)); got.K != KindDecimal || got.String() != "3.0000" {
		t.Errorf("1.50*2.00 = %v (%+v)", got, got)
	}
	if got := Sub(NewInt64(1), NewDecimal(4, 2)); got.String() != "0.96" {
		t.Errorf("1-0.04 = %v", got)
	}
	if got := Div(NewInt64(7), NewInt64(2)); got.Int() != 3 {
		t.Errorf("7/2 = %v, want integer division 3", got)
	}
	if got := Div(NewInt64(7), NewInt64(0)); !got.IsNull() {
		t.Errorf("7/0 = %v, want NULL", got)
	}
	if got := Add(Null, NewInt64(1)); !got.IsNull() {
		t.Error("NULL + 1 must be NULL")
	}
	if got := Mul(NewFloat64(2), NewInt64(3)); got.Float() != 6 {
		t.Errorf("2.0*3 = %v", got)
	}
	// Date arithmetic.
	d := MustParseDate("1995-01-01")
	if got := Add(d, NewInt64(31)); got.String() != "1995-02-01" {
		t.Errorf("date+31 = %v", got)
	}
	if got := Sub(MustParseDate("1995-01-02"), d); got.Int() != 1 {
		t.Errorf("date diff = %v", got)
	}
	if got := Neg(NewDecimal(5, 1)); got.String() != "-0.5" {
		t.Errorf("neg = %v", got)
	}
}

func TestDecimalMulOverflowFallsBackToFloat(t *testing.T) {
	big := NewDecimal(math.MaxInt64/2, 2)
	got := Mul(big, NewDecimal(300, 2))
	if got.K != KindFloat64 {
		t.Fatalf("overflowing mul kind = %v, want float fallback", got.K)
	}
	want := big.Float() * 3.0
	if math.Abs(got.Float()-want)/want > 1e-9 {
		t.Errorf("fallback value = %v, want ~%v", got.Float(), want)
	}
}

func TestCast(t *testing.T) {
	ok := func(d Datum, to Kind, want string) {
		t.Helper()
		got, err := Cast(d, to)
		if err != nil {
			t.Fatalf("cast %v -> %v: %v", d, to, err)
		}
		if got.String() != want {
			t.Errorf("cast %v -> %v = %q, want %q", d, to, got, want)
		}
	}
	ok(NewString("42"), KindInt64, "42")
	ok(NewString(" 3.5 "), KindFloat64, "3.5")
	ok(NewInt64(9), KindString, "9")
	ok(NewString("1995-06-17"), KindDate, "1995-06-17")
	ok(NewFloat64(1.005), KindDecimal, "1.00")
	ok(NewString("12.34"), KindDecimal, "12.34")
	ok(NewInt64(1), KindBool, "t")
	ok(NewString("false"), KindBool, "f")
	// To an integer a decimal rounds half away from zero, a DOUBLE half to even.
	ok(NewDecimal(15, 1), KindInt32, "2")
	ok(NewDecimal(-25, 1), KindInt64, "-3")
	ok(NewDecimal(149, 2), KindInt64, "1")
	ok(NewFloat64(2.5), KindInt64, "2")
	ok(NewFloat64(3.5), KindInt64, "4")
	ok(NewFloat64(-1.7), KindInt32, "-2")
	for _, c := range []struct {
		d     Datum
		scale int8
		want  string
	}{
		{NewDecimal(1234, 3), 2, "1.23"}, {NewDecimal(1235, 3), 2, "1.24"}, {NewDecimal(-1235, 3), 2, "-1.24"},
		{NewDecimal(25, 1), 2, "2.50"}, {NewInt64(7), 1, "7.0"}, {NewString("0.005"), 2, "0.01"},
		{NewFloat64(1.005), 2, "1.01"}, {NewDecimal(-5, 1), 0, "-1"}, {Null, 2, "NULL"},
		// Text rounds once, from all its digits, however many there are.
		{NewString("0.000000005"), 8, "0.00000001"}, {NewString("-0.000000005"), 8, "-0.00000001"},
		{NewString(" 0.123456785 "), 8, "0.12345679"}, {NewString("0.0049999999"), 2, "0.00"},
		{NewString("+.125"), 2, "0.13"}, {NewString("7"), 3, "7.000"}, {NewFloat64(0.000000005), 8, "0.00000001"},
	} {
		got, err := CastScale(c.d, KindDecimal, c.scale)
		if err != nil || got.String() != c.want || !got.IsNull() && got.Scale != c.scale {
			t.Errorf("CastScale(%v, %d) = %v (scale %d), %v; want %s", c.d, c.scale, got, got.Scale, err, c.want)
		}
	}
	for _, bad := range []Datum{NewFloat64(math.NaN()), NewString("0.12x"), NewString("1.2.3"), NewString("- 1")} {
		if _, err := CastScale(bad, KindDecimal, 2); err == nil {
			t.Errorf("%v cast to a decimal must error", bad)
		}
	}
	// A bare literal keeps the digits it is written with, up to eight,
	// and rounds past them as the cast above does.
	if d, err := ParseDecimal("0.123456785"); err != nil || d.I != 12345679 || d.Scale != 8 {
		t.Errorf("ParseDecimal(0.123456785) = %v, %v; want 0.12345679", d, err)
	}
	// Scaling up checks int64's range, both signs, exactly at its edge.
	for _, c := range []struct {
		d    Datum
		want string
	}{
		{NewInt64(1e11), ""}, {NewInt64(-1e11), ""}, {NewDecimal(math.MaxInt64/10+1, 7), ""},
		{NewString("100000000000"), ""}, {NewString("92233720368.547758075"), ""},
		{NewString("92233720368.547758074"), "92233720368.54775807"},
		{NewDecimal(math.MaxInt64/10, 7), "92233720368.54775800"}, {NewDecimal(math.MinInt64/10, 7), "-92233720368.54775800"},
	} {
		got, err := CastScale(c.d, KindDecimal, 8)
		if c.want == "" && err == nil || c.want != "" && (err != nil || got.String() != c.want) {
			t.Errorf("CastScale(%v, 8) = %v, %v; want %q", c.d, got, err, c.want)
		}
	}
	if got, err := CastScale(NewString("1.5"), KindDecimal, 20); err != nil || got.String() != "1.50000000" {
		t.Errorf("CastScale(1.5, 20) = %v, %v; want 1.50000000 (MaxDecimalScale digits)", got, err)
	}
	if _, err := Cast(NewString("zzz"), KindInt64); err == nil {
		t.Error("expected cast error")
	}
	if d, err := Cast(Null, KindInt64); err != nil || !d.IsNull() {
		t.Error("NULL cast must stay NULL")
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(
		Column{Name: "a", Kind: KindInt64},
		Column{Name: "B", Kind: KindString},
	)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.IndexOf("b") != 1 || s.IndexOf("A") != 0 || s.IndexOf("missing") != -1 {
		t.Error("IndexOf case-insensitivity broken")
	}
	p := s.Project([]int{1})
	if p.Len() != 1 || p.Columns[0].Name != "B" {
		t.Errorf("project = %v", p)
	}
	c := s.Concat(p)
	if c.Len() != 3 {
		t.Errorf("concat len = %d", c.Len())
	}
	if got := s.String(); got != "(a BIGINT, B TEXT)" {
		t.Errorf("schema string = %q", got)
	}
	if names := s.Names(); !reflect.DeepEqual(names, []string{"a", "B"}) {
		t.Errorf("names = %v", names)
	}
}

func randomDatum(r *rand.Rand) Datum {
	switch r.Intn(8) {
	case 0:
		return Null
	case 1:
		return NewBool(r.Intn(2) == 1)
	case 2:
		return NewInt32(int32(r.Int63()))
	case 3:
		return NewInt64(r.Int63() - r.Int63())
	case 4:
		return NewFloat64(r.NormFloat64() * 1e6)
	case 5:
		return NewDecimal(r.Int63n(1e12)-5e11, int8(r.Intn(5)))
	case 6:
		b := make([]byte, r.Intn(40))
		r.Read(b)
		return NewString(string(b))
	default:
		return NewDate(int32(r.Intn(40000) - 10000))
	}
}

func TestEncodeDecodeDatumRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		d := randomDatum(r)
		buf := EncodeDatum(nil, d)
		got, n, err := DecodeDatum(buf)
		if err != nil {
			t.Fatalf("decode %+v: %v", d, err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if got != d {
			t.Fatalf("round trip %+v -> %+v", d, got)
		}
	}
}

func TestEncodeDecodeRowRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		row := make(Row, r.Intn(12))
		for j := range row {
			row[j] = randomDatum(r)
		}
		buf := EncodeRow(nil, row)
		// Append noise to verify length discipline.
		buf = append(buf, 0xde, 0xad)
		got, n, err := DecodeRow(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(buf)-2 {
			t.Fatalf("consumed %d, want %d", n, len(buf)-2)
		}
		if !reflect.DeepEqual(got, row) {
			t.Fatalf("round trip %v -> %v", row, got)
		}
	}
}

func TestDecodeErrorsOnTruncation(t *testing.T) {
	row := Row{NewInt64(5), NewString("hello"), NewFloat64(1.5)}
	buf := EncodeRow(nil, row)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeRow(buf[:cut]); err == nil {
			t.Fatalf("no error decoding %d/%d bytes", cut, len(buf))
		}
	}
}

// Property: encode/decode is the identity on datums (testing/quick drives
// the raw field values; we normalize to a valid datum first).
func TestQuickEncodeDecode(t *testing.T) {
	f := func(kindSeed uint8, i int64, fl float64, s string, scale uint8) bool {
		var d Datum
		switch kindSeed % 7 {
		case 0:
			d = Null
		case 1:
			d = NewBool(i%2 == 0)
		case 2:
			d = NewInt64(i)
		case 3:
			d = NewFloat64(fl)
		case 4:
			d = NewDecimal(i, int8(scale%9))
		case 5:
			d = NewString(s)
		case 6:
			d = NewDate(int32(i))
		}
		buf := EncodeDatum(nil, d)
		got, n, err := DecodeDatum(buf)
		return err == nil && n == len(buf) && got == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: datums that compare equal hash equal.
func TestQuickHashConsistentWithEquality(t *testing.T) {
	f := func(v int64, scale uint8) bool {
		sc := int8(scale % 5)
		a := NewInt64(v)
		u := v
		overflow := false
		for i := int8(0); i < sc; i++ {
			next := u * 10
			if u != 0 && next/10 != u {
				overflow = true
				break
			}
			u = next
		}
		if overflow {
			return true
		}
		b := NewDecimal(u, sc)
		if Compare(a, b) != 0 {
			return false
		}
		return KeyWord(&a) == KeyWord(&b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestHashRowCols: a row's key hash (HashKeys, which placement reduces
// with SegmentOf) depends on the key columns alone and equates equal
// values of either integer width.
func TestHashRowCols(t *testing.T) {
	hash := func(r Row, cols []int) uint64 {
		p, _ := HashKeys(r, cols)
		return p
	}
	r1 := Row{NewInt64(1), NewString("x"), NewInt64(9)}
	r2 := Row{NewInt64(1), NewString("y"), NewInt64(8)}
	if hash(r1, []int{0}) != hash(r2, []int{0}) {
		t.Error("same key column must hash equal")
	}
	if hash(r1, []int{0, 1, 2}) == hash(r2, []int{0, 1, 2}) {
		t.Error("full-row hashes of different rows should differ")
	}
	// Cross-kind key equality: int32 vs int64.
	a := Row{NewInt32(77)}
	b := Row{NewInt64(77)}
	if hash(a, []int{0}) != hash(b, []int{0}) {
		t.Error("int32/int64 equal values must hash equal")
	}
	if SegmentOf(hash(a, []int{0}), 4) != SegmentOf(hash(b, []int{0}), 4) {
		t.Error("int32/int64 equal values must be placed on one segment")
	}
}

func TestRowCloneIndependence(t *testing.T) {
	r := Row{NewInt64(1)}
	c := r.Clone()
	c[0] = NewInt64(2)
	if r[0].Int() != 1 {
		t.Error("clone aliases original")
	}
	if r.String() != "1" {
		t.Errorf("row string = %q", r.String())
	}
}
