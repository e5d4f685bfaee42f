// Package types defines the SQL type system used throughout the engine:
// datum values, column schemas, rows, ordering, hashing for data
// distribution, and a compact binary encoding used by the storage formats
// and the interconnect.
package types

import (
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
	"time"
)

// Kind identifies the runtime type of a Datum.
type Kind uint8

// The supported SQL kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt32
	KindInt64
	KindFloat64
	KindDecimal // fixed-point: unscaled int64 plus a decimal scale
	KindString  // CHAR(n), VARCHAR(n) and TEXT all map here
	KindDate    // days since 1970-01-01
	KindBytes
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt32:
		return "INTEGER"
	case KindInt64:
		return "BIGINT"
	case KindFloat64:
		return "DOUBLE"
	case KindDecimal:
		return "DECIMAL"
	case KindString:
		return "TEXT"
	case KindDate:
		return "DATE"
	case KindBytes:
		return "BYTEA"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// MaxDecimalScale bounds the scale kept after decimal multiplication.
const MaxDecimalScale = 8

// Datum is a single SQL value. The zero value is SQL NULL.
//
// Representation by kind:
//
//	Bool     I (0 or 1)
//	Int32    I
//	Int64    I
//	Float64  F
//	Decimal  I = unscaled value, Scale = number of fractional digits
//	String   S
//	Date     I = days since Unix epoch
//	Bytes    S (byte string)
type Datum struct {
	K     Kind
	Scale int8
	I     int64
	F     float64
	S     string
}

// Null is the SQL NULL datum.
var Null = Datum{K: KindNull}

// NewBool returns a boolean datum.
func NewBool(b bool) Datum {
	if b {
		return Datum{K: KindBool, I: 1}
	}
	return Datum{K: KindBool}
}

// NewInt32 returns an INTEGER datum.
func NewInt32(v int32) Datum { return Datum{K: KindInt32, I: int64(v)} }

// NewInt64 returns a BIGINT datum.
func NewInt64(v int64) Datum { return Datum{K: KindInt64, I: v} }

// NewFloat64 returns a DOUBLE datum.
func NewFloat64(v float64) Datum { return Datum{K: KindFloat64, F: v} }

// NewDecimal returns a DECIMAL datum with the given unscaled value and scale.
// NewDecimal(12345, 2) is the value 123.45.
func NewDecimal(unscaled int64, scale int8) Datum {
	return Datum{K: KindDecimal, I: unscaled, Scale: scale}
}

// NewString returns a TEXT datum.
func NewString(s string) Datum { return Datum{K: KindString, S: s} }

// NewBytes returns a BYTEA datum.
func NewBytes(b []byte) Datum { return Datum{K: KindBytes, S: string(b)} }

// NewDate returns a DATE datum from days since the Unix epoch.
func NewDate(days int32) Datum { return Datum{K: KindDate, I: int64(days)} }

// DateFromTime converts a time.Time (UTC date part) to a DATE datum.
func DateFromTime(t time.Time) Datum {
	return NewDate(int32(t.Unix() / 86400))
}

// MustParseDate parses "YYYY-MM-DD" and panics on malformed input. It is
// intended for literals in tests and generators.
func MustParseDate(s string) Datum {
	d, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}

// ParseDate parses a "YYYY-MM-DD" date string into a DATE datum.
func ParseDate(s string) (Datum, error) {
	t, err := time.ParseInLocation("2006-01-02", s, time.UTC)
	if err != nil {
		return Null, fmt.Errorf("invalid date %q: %w", s, err)
	}
	return DateFromTime(t), nil
}

// IsNull reports whether the datum is SQL NULL.
func (d Datum) IsNull() bool { return d.K == KindNull }

// Bool returns the boolean value; the datum must be a BOOLEAN.
func (d Datum) Bool() bool { return d.I != 0 }

// Int returns the integer value of an INTEGER/BIGINT datum.
func (d Datum) Int() int64 { return d.I }

// Float returns the value coerced to float64. Works for every numeric kind.
func (d Datum) Float() float64 {
	switch d.K {
	case KindFloat64:
		return d.F
	case KindDecimal:
		return float64(d.I) / pow10f(d.Scale)
	default:
		return float64(d.I)
	}
}

// Str returns the string value of a TEXT/BYTEA datum.
func (d Datum) Str() string { return d.S }

// Detach returns d with its string bytes copied. A Datum read out of a
// column vector is a slice of the one string its page's column shares;
// whatever keeps a value for as long as a query runs — a group key, a
// running minimum — detaches it, so that it holds its own bytes (which
// is what the memory accounting charges) and not the page's.
func (d Datum) Detach() Datum {
	d.S = strings.Clone(d.S)
	return d
}

// Time returns the time.Time corresponding to a DATE datum.
func (d Datum) Time() time.Time {
	return time.Unix(d.I*86400, 0).UTC()
}

// Year returns the calendar year of a DATE datum.
func (d Datum) Year() int { return d.Time().Year() }

var pow10 = [...]int64{1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000, 1000000000}

func pow10f(scale int8) float64 { return float64(pow10[scale]) }

// Pow10 returns the divisor Float applies to a decimal of the given
// scale, for a loop that converts a whole column; ok is false for a
// scale Float itself could not convert.
func Pow10(scale int8) (float64, bool) {
	if scale < 0 || int(scale) >= len(pow10) {
		return 0, false
	}
	return pow10f(scale), true
}

// Rescale returns the decimal's unscaled value at the requested scale,
// truncating extra digits toward zero when scaling down.
func rescale(unscaled int64, from, to int8) int64 {
	for from < to {
		unscaled *= 10
		from++
	}
	for from > to {
		unscaled /= 10
		from--
	}
	return unscaled
}

// UnscaledAt returns the unscaled value an integer or decimal datum has
// at the given decimal scale, when that is exact and fits: 24 at scale 2
// is 2400, 1.50 at scale 1 is 15, 0.005 at scale 2 is not ok. It is how
// a constant is aligned once with a column of decimals that all share
// one scale.
func (d Datum) UnscaledAt(scale int8) (int64, bool) {
	from := d.Scale
	switch d.K {
	case KindInt32, KindInt64:
		from = 0
	case KindDecimal:
	default:
		return 0, false
	}
	u := d.I
	for ; from < scale; from++ {
		if !within(u, math.MaxInt64/10) {
			return 0, false
		}
		u *= 10
	}
	for ; from > scale; from-- {
		if u%10 != 0 {
			return 0, false
		}
		u /= 10
	}
	return u, true
}

// DecimalString renders a DECIMAL datum as text, e.g. "123.45".
func (d Datum) DecimalString() string {
	u, sc := d.I, int(d.Scale)
	neg := u < 0
	if neg {
		u = -u
	}
	s := strconv.FormatInt(u, 10)
	if sc > 0 {
		for len(s) <= sc {
			s = "0" + s
		}
		s = s[:len(s)-sc] + "." + s[len(s)-sc:]
	}
	if neg {
		s = "-" + s
	}
	return s
}

// String renders the datum for display.
func (d Datum) String() string {
	switch d.K {
	case KindNull:
		return "NULL"
	case KindBool:
		if d.I != 0 {
			return "t"
		}
		return "f"
	case KindInt32, KindInt64:
		return strconv.FormatInt(d.I, 10)
	case KindFloat64:
		return strconv.FormatFloat(d.F, 'g', -1, 64)
	case KindDecimal:
		return d.DecimalString()
	case KindString, KindBytes:
		return d.S
	case KindDate:
		return d.Time().Format("2006-01-02")
	default:
		return fmt.Sprintf("<bad datum kind %d>", d.K)
	}
}

// numericKind reports whether k participates in numeric arithmetic.
func numericKind(k Kind) bool {
	switch k {
	case KindInt32, KindInt64, KindFloat64, KindDecimal:
		return true
	}
	return false
}

// compareClass sorts the kinds into the classes Compare orders within:
// numerics by value across kinds, dates, booleans, and strings with
// bytes. Class 0 (NULL, unknown kinds) compares with nothing.
func compareClass(k Kind) int {
	switch k {
	case KindInt32, KindInt64, KindFloat64, KindDecimal:
		return 1
	case KindDate:
		return 2
	case KindBool:
		return 3
	case KindString, KindBytes:
		return 4
	}
	return 0
}

// Comparable reports whether Compare can order non-NULL values of kinds
// a and b. The binder rejects a comparison for which it is false, the
// kernel compiler and the zone maps ask it before they compare values
// they did not type-check themselves.
func Comparable(a, b Kind) bool {
	c := compareClass(a)
	return c != 0 && c == compareClass(b)
}

// Hashable reports whether an equality between values of kinds a and b
// can be a hash-join key: both sides must have one normal form that equal
// values share. The exact numerics have one between them (an integer, or
// a decimal with its trailing zeros stripped), and so do TEXT and BYTEA;
// DOUBLE, DATE and BOOLEAN hash only with themselves. A DOUBLE equals an
// exact numeric by value under Compare, but not by any form both can be
// brought to without rounding, so that pair is Comparable and not
// Hashable: the planner leaves such an equality to a join predicate.
func Hashable(a, b Kind) bool {
	if a == KindFloat64 || b == KindFloat64 {
		return a == b
	}
	return Comparable(a, b)
}

// Compare orders two datums. NULL sorts before every non-NULL value.
// Numeric kinds compare by value across kinds, a NaN equal to NaN and
// above every other number (PostgreSQL's order); other kinds must match
// (Comparable). It panics on incomparable kinds: the binder lets no such
// comparison into a plan.
func Compare(a, b Datum) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == b.K:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if numericKind(a.K) && numericKind(b.K) {
		return compareNumeric(a, b)
	}
	switch {
	case a.K == KindDate && b.K == KindDate,
		a.K == KindBool && b.K == KindBool:
		return cmpInt64(a.I, b.I)
	case (a.K == KindString || a.K == KindBytes) && (b.K == KindString || b.K == KindBytes):
		return strings.Compare(a.S, b.S)
	}
	panic(fmt.Sprintf("types: cannot compare %s with %s", a.K, b.K))
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// CompareFloat orders two DOUBLEs as Compare does: by value, with NaN
// equal to NaN and greater than every other number.
func CompareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case a != a && b != b:
		return 0
	case a != a:
		return 1
	}
	return -1
}

func compareNumeric(a, b Datum) int {
	if a.K == KindFloat64 || b.K == KindFloat64 {
		return CompareFloat(a.Float(), b.Float())
	}
	if a.K == KindDecimal || b.K == KindDecimal {
		as, bs := a.I, b.I
		asc, bsc := a.Scale, b.Scale
		if a.K != KindDecimal {
			asc = 0
		}
		if b.K != KindDecimal {
			bsc = 0
		}
		return cmpDecimal(as, asc, bs, bsc)
	}
	return cmpInt64(a.I, b.I)
}

// cmpDecimal exactly compares aU*10^-aSc with bU*10^-bSc. The fast path
// rescales to the wider scale in int64; the rare overflow path is exact
// via math/big.
func cmpDecimal(aU int64, aSc int8, bU int64, bSc int8) int {
	if aSc == bSc {
		return cmpInt64(aU, bU)
	}
	target := aSc
	if bSc > target {
		target = bSc
	}
	if within(aU, 1e12) && within(bU, 1e12) && target <= MaxDecimalScale {
		return cmpInt64(rescale(aU, aSc, target), rescale(bU, bSc, target))
	}
	x := new(big.Int).Mul(big.NewInt(aU), bigPow10(bSc))
	y := new(big.Int).Mul(big.NewInt(bU), bigPow10(aSc))
	return x.Cmp(y)
}

func bigPow10(sc int8) *big.Int {
	return new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(sc)), nil)
}

func within(v, bound int64) bool { return v > -bound && v < bound }

// Equal reports whether two datums compare equal.
func Equal(a, b Datum) bool {
	if (a.K == KindNull) != (b.K == KindNull) {
		return false
	}
	return Compare(a, b) == 0
}

// Arithmetic on datums. Any NULL operand yields NULL. Results follow SQL
// numeric promotion: int op int -> int64, decimal involvement -> decimal,
// float involvement -> float64.

// Add returns a+b.
func Add(a, b Datum) Datum { return arith(a, b, '+') }

// Sub returns a-b.
func Sub(a, b Datum) Datum { return arith(a, b, '-') }

// Mul returns a*b.
func Mul(a, b Datum) Datum { return arith(a, b, '*') }

// Div returns a/b; division by zero yields NULL.
func Div(a, b Datum) Datum { return arith(a, b, '/') }

func arith(a, b Datum, op byte) Datum {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	// Date +/- integer days.
	if a.K == KindDate && (b.K == KindInt32 || b.K == KindInt64) && (op == '+' || op == '-') {
		if op == '+' {
			return NewDate(int32(a.I + b.I))
		}
		return NewDate(int32(a.I - b.I))
	}
	if a.K == KindDate && b.K == KindDate && op == '-' {
		return NewInt64(a.I - b.I)
	}
	if !numericKind(a.K) || !numericKind(b.K) {
		panic(fmt.Sprintf("types: arithmetic %c on %s and %s", op, a.K, b.K))
	}
	if a.K == KindFloat64 || b.K == KindFloat64 {
		return floatArith(a.Float(), b.Float(), op)
	}
	if a.K == KindDecimal || b.K == KindDecimal {
		return decimalArith(a, b, op)
	}
	// Pure integer arithmetic.
	switch op {
	case '+':
		return NewInt64(a.I + b.I)
	case '-':
		return NewInt64(a.I - b.I)
	case '*':
		return NewInt64(a.I * b.I)
	case '/':
		if b.I == 0 {
			return Null
		}
		return NewInt64(a.I / b.I)
	}
	panic("unreachable")
}

func floatArith(a, b float64, op byte) Datum {
	switch op {
	case '+':
		return NewFloat64(a + b)
	case '-':
		return NewFloat64(a - b)
	case '*':
		return NewFloat64(a * b)
	case '/':
		if b == 0 {
			return Null
		}
		return NewFloat64(a / b)
	}
	panic("unreachable")
}

func decimalArith(a, b Datum, op byte) Datum {
	as, asc := a.I, a.Scale
	if a.K != KindDecimal {
		asc = 0
	}
	bs, bsc := b.I, b.Scale
	if b.K != KindDecimal {
		bsc = 0
	}
	switch op {
	case '+', '-':
		sc := asc
		if bsc > sc {
			sc = bsc
		}
		x, y := rescale(as, asc, sc), rescale(bs, bsc, sc)
		if op == '+' {
			return NewDecimal(x+y, sc)
		}
		return NewDecimal(x-y, sc)
	case '*':
		sc := asc + bsc
		v := as * bs
		// Detect overflow; fall back to float math, which is fine for
		// the analytics aggregates this engine computes.
		if as != 0 && v/as != bs || sc > MaxDecimalScale {
			return NewFloat64(a.Float() * b.Float())
		}
		return NewDecimal(v, sc)
	case '/':
		if bs == 0 {
			return Null
		}
		return NewFloat64(a.Float() / b.Float())
	}
	panic("unreachable")
}

// Neg returns the arithmetic negation of a numeric datum.
func Neg(a Datum) Datum {
	switch a.K {
	case KindNull:
		return Null
	case KindInt32:
		return NewInt32(int32(-a.I))
	case KindInt64:
		return NewInt64(-a.I)
	case KindFloat64:
		return NewFloat64(-a.F)
	case KindDecimal:
		return NewDecimal(-a.I, a.Scale)
	}
	panic(fmt.Sprintf("types: negation of %s", a.K))
}

// Cast converts a datum to the target kind, returning an error for
// unsupported or malformed conversions. NULL casts to NULL.
func Cast(d Datum, to Kind) (Datum, error) {
	if d.IsNull() || d.K == to {
		return withKind(d, to), nil
	}
	switch to {
	case KindInt32, KindInt64:
		switch d.K {
		case KindInt32, KindInt64, KindBool, KindDate:
			return Datum{K: to, I: d.I}, nil
		case KindFloat64:
			return Datum{K: to, I: int64(math.RoundToEven(d.F))}, nil // as PostgreSQL's rint
		case KindDecimal:
			i, _ := roundScale(d.I, d.Scale, 0) // scaling down always fits
			return Datum{K: to, I: i}, nil
		case KindString:
			v, err := strconv.ParseInt(strings.TrimSpace(d.S), 10, 64)
			if err != nil {
				return Null, fmt.Errorf("cannot cast %q to %s", d.S, to)
			}
			return Datum{K: to, I: v}, nil
		}
	case KindFloat64:
		if numericKind(d.K) {
			return NewFloat64(d.Float()), nil
		}
		if d.K == KindString {
			v, err := strconv.ParseFloat(strings.TrimSpace(d.S), 64)
			if err != nil {
				return Null, fmt.Errorf("cannot cast %q to DOUBLE", d.S)
			}
			return NewFloat64(v), nil
		}
	case KindDecimal:
		switch d.K {
		case KindInt32, KindInt64:
			return NewDecimal(d.I, 0), nil
		case KindFloat64:
			return NewDecimal(int64(d.F*100+copysign(0.5, d.F)), 2), nil
		case KindString:
			return ParseDecimal(strings.TrimSpace(d.S))
		}
	case KindString:
		return NewString(d.String()), nil
	case KindDate:
		if d.K == KindString {
			return ParseDate(strings.TrimSpace(d.S))
		}
		if d.K == KindInt32 || d.K == KindInt64 {
			return NewDate(int32(d.I)), nil
		}
	case KindBool:
		switch d.K {
		case KindInt32, KindInt64:
			return NewBool(d.I != 0), nil
		case KindString:
			switch strings.ToLower(strings.TrimSpace(d.S)) {
			case "t", "true", "yes", "on", "1":
				return NewBool(true), nil
			case "f", "false", "no", "off", "0":
				return NewBool(false), nil
			}
		}
	case KindBytes:
		if d.K == KindString {
			return NewBytes([]byte(d.S)), nil
		}
	}
	return Null, fmt.Errorf("unsupported cast from %s to %s", d.K, to)
}

// CastScale is Cast that brings a decimal result to exactly scale
// digits, rounding half away from zero: CAST … AS DECIMAL(p,s), and every
// value written to a DECIMAL(p,s) column, so that such a column holds
// one scale. A scale above MaxDecimalScale keeps MaxDecimalScale digits,
// the most any decimal here has. A value whose unscaled form at that
// scale does not fit an int64 is an error, not a wrapped number.
func CastScale(d Datum, to Kind, scale int8) (Datum, error) {
	scale = min(scale, MaxDecimalScale)
	switch {
	case d.K == to && (to != KindDecimal || d.Scale == scale):
		return d, nil // COPY casts every cell, and nearly every one is this
	case to != KindDecimal || d.IsNull():
		return Cast(d, to)
	case d.K == KindFloat64: // by its shortest text, as PostgreSQL does: 1.005 is not 1.00499…
		return parseDecimal(strconv.FormatFloat(d.F, 'f', -1, 64), scale)
	case d.K == KindString:
		return parseDecimal(strings.TrimSpace(d.S), scale)
	}
	v, err := Cast(d, to)
	if err != nil {
		return Null, err
	}
	u, ok := roundScale(v.I, v.Scale, scale)
	if !ok {
		return Null, fmt.Errorf("numeric field overflow: %s at scale %d", v, scale)
	}
	return NewDecimal(u, scale), nil
}

// roundScale brings an unscaled value from one scale to another,
// rounding half away from zero where it drops digits: only the first
// dropped digit decides. ok is false when scaling up leaves int64.
func roundScale(unscaled int64, from, to int8) (int64, bool) {
	for ; from < to; from++ {
		if unscaled > math.MaxInt64/10 || unscaled < math.MinInt64/10 {
			return 0, false
		}
		unscaled *= 10
	}
	if from == to {
		return unscaled, true
	}
	for ; from > to+1; from-- {
		unscaled /= 10
	}
	q, r := unscaled/10, unscaled%10
	switch {
	case r >= 5:
		q++
	case r <= -5:
		q--
	}
	return q, true
}

func withKind(d Datum, to Kind) Datum {
	if d.IsNull() {
		return Null
	}
	return d
}

func copysign(mag, sign float64) float64 {
	if sign < 0 {
		return -mag
	}
	return mag
}

// ParseDecimal parses a decimal literal such as "123.45" or "-0.07" at
// the scale it is written with, up to MaxDecimalScale; a literal with
// more digits rounds half away from zero at MaxDecimalScale, as a CAST
// to that scale does.
func ParseDecimal(s string) (Datum, error) { return parseDecimal(s, -1) }

// parseDecimal parses s at scale digits, rounding half away from zero on
// the first digit it drops, so that the text rounds once, from all its
// digits. A negative scale is the digits written, up to
// MaxDecimalScale.
func parseDecimal(s string, scale int8) (Datum, error) {
	t, neg := s, false
	if t != "" && (t[0] == '-' || t[0] == '+') {
		t, neg = t[1:], t[0] == '-'
	}
	intPart, frac, _ := strings.Cut(t, ".")
	if intPart == "" {
		intPart = "0"
	}
	if strings.Trim(intPart+frac, "0123456789") != "" {
		return Null, fmt.Errorf("invalid decimal %q", s)
	}
	if scale < 0 {
		scale = int8(min(len(frac), MaxDecimalScale))
	}
	up := len(frac) > int(scale) && frac[scale] >= '5'

	frac = (frac + strings.Repeat("0", int(scale)))[:scale]
	v, err := strconv.ParseInt(intPart+frac, 10, 64)
	if up && err == nil && v == math.MaxInt64 {
		err = strconv.ErrRange
	}
	if err != nil {
		return Null, fmt.Errorf("numeric field overflow: %q at scale %d", s, scale)
	}
	if up {
		v++
	}
	if neg {
		v = -v
	}
	return NewDecimal(v, scale), nil
}
