package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The datum wire format, used by the storage formats, the interconnect
// and serialized plans: one kind byte, then nothing (NULL), one byte
// (BOOLEAN), a varint (the integers, DATE), a scale byte and a varint
// (DECIMAL), eight big-endian bytes (DOUBLE), or a uvarint length and the
// bytes (TEXT, BYTEA). The three append helpers below are the only
// writers of it and parseDatum the only reader.

// appendIntDatum appends a value of an integer-like kind.
func appendIntDatum(buf []byte, k Kind, scale int8, i int64) []byte {
	switch k {
	case KindBool:
		return append(buf, byte(k), byte(i))
	case KindDecimal:
		buf = append(buf, byte(k), byte(scale))
	default:
		buf = append(buf, byte(k))
	}
	return binary.AppendVarint(buf, i)
}

// appendFloatDatum appends a DOUBLE.
func appendFloatDatum(buf []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(append(buf, byte(KindFloat64)), math.Float64bits(f))
}

// appendStrDatum appends a string-like value.
func appendStrDatum(buf []byte, k Kind, s string) []byte {
	buf = binary.AppendUvarint(append(buf, byte(k)), uint64(len(s)))
	return append(buf, s...)
}

// EncodeDatum appends a self-describing binary encoding of d to buf;
// DecodeDatum reverses it.
func EncodeDatum(buf []byte, d Datum) []byte {
	switch d.K {
	case KindNull:
		return append(buf, byte(KindNull))
	case KindBool, KindInt32, KindInt64, KindDate, KindDecimal:
		return appendIntDatum(buf, d.K, d.Scale, d.I)
	case KindFloat64:
		return appendFloatDatum(buf, d.F)
	case KindString, KindBytes:
		return appendStrDatum(buf, d.K, d.S)
	}
	panic(fmt.Sprintf("types: encode of bad kind %d", d.K))
}

// AppendKey appends d's grouping key to buf: bytes that two values of
// one Hashable class share exactly when the executor's key table calls
// them one key (Compare calls them equal, or both are NaN) — an integer
// of either width and a decimal of any scale as (unscaled value, scale)
// with the trailing zeros stripped, so 7, 7.0 and 7.00 are one key; -0.0
// as 0.0; TEXT and BYTEA as their bytes; everything else as its
// encoding. The executor hashes typed cells and builds no such bytes:
// they are the form its references keep — count(DISTINCT …) in the
// Stinger baseline and the tests' plain-loop evaluator — and a
// differential test holds the two equal.
func AppendKey(buf []byte, d Datum) []byte {
	switch d.K {
	case KindInt32, KindInt64, KindDecimal:
		u, scale := StripZeros(d.I, d.Scale)
		return appendIntDatum(buf, KindDecimal, scale, u)
	case KindFloat64:
		f := d.F
		switch {
		case f == 0:
			f = 0 // -0.0 equals 0.0
		case f != f:
			f = math.NaN() // one NaN
		}
		return appendFloatDatum(buf, f)
	case KindString, KindBytes:
		return appendStrDatum(buf, KindString, d.S)
	}
	return EncodeDatum(buf, d)
}

// StripZeros brings the exact numeric u × 10^-scale to the one form
// equal values share: no trailing zero in u unless scale is 0.
func StripZeros(u int64, scale int8) (int64, int8) {
	for scale > 0 && u%10 == 0 {
		u /= 10
		scale--
	}
	return u, scale
}

// parseDatum is the one reader of the format. It takes apart the encoded
// datum at the head of buf: its kind, then by kind the integer-like value
// i (with a decimal's scale), the DOUBLE f, or the bytes of a string-like
// value — body, a slice of buf and not a copy, for the caller to keep
// (DecodeDatum), move elsewhere (VecBuilder) or ignore (SkipDatum) — and
// the encoded size. What a kind does not use is zero. It never panics on
// truncated or corrupt input.
func parseDatum(buf []byte) (k Kind, scale int8, i int64, f float64, body []byte, size int, err error) {
	if len(buf) == 0 {
		return badDatum("datum in empty buffer")
	}
	k = Kind(buf[0])
	pos := 1
	switch k {
	case KindNull:
		return k, 0, 0, 0, nil, 1, nil
	case KindBool:
		if len(buf) < 2 {
			return badDatum("truncated bool")
		}
		return k, 0, int64(buf[1]), 0, nil, 2, nil
	case KindDecimal:
		if len(buf) < 2 {
			return badDatum("truncated decimal")
		}
		scale, pos = int8(buf[1]), 2
		fallthrough
	case KindInt32, KindInt64, KindDate:
		v, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return badDatum("truncated varint")
		}
		return k, scale, v, 0, nil, pos + n, nil
	case KindFloat64:
		if len(buf) < 9 {
			return badDatum("truncated float")
		}
		return k, 0, 0, math.Float64frombits(binary.BigEndian.Uint64(buf[1:])), nil, 9, nil
	case KindString, KindBytes:
		l, n := binary.Uvarint(buf[1:])
		if n <= 0 {
			return badDatum("truncated string length")
		}
		pos += n
		if uint64(len(buf)-pos) < l {
			return badDatum("truncated string body")
		}
		return k, 0, 0, 0, buf[pos : pos+int(l)], pos + int(l), nil
	}
	return badDatum("datum of bad kind %d", k)
}

// badDatum is parseDatum's result for bytes that are no datum.
func badDatum(format string, args ...any) (Kind, int8, int64, float64, []byte, int, error) {
	return 0, 0, 0, 0, nil, 0, fmt.Errorf("types: "+format, args...)
}

// decodeInto decodes the datum at the head of buf into d, where it is to
// stay, and returns the bytes consumed.
func decodeInto(buf []byte, d *Datum) (int, error) {
	k, scale, i, f, body, size, err := parseDatum(buf)
	*d = Datum{K: k, Scale: scale, I: i, F: f, S: string(body)}
	return size, err
}

// DecodeDatum decodes one datum from buf, returning it and the number of
// bytes consumed.
func DecodeDatum(buf []byte) (d Datum, size int, err error) {
	size, err = decodeInto(buf, &d)
	return
}

// SkipDatum returns the encoded size of the next datum in buf without
// materializing it: how a row-major block steps over the columns a scan
// did not ask for.
func SkipDatum(buf []byte) (int, error) {
	_, _, _, _, _, size, err := parseDatum(buf)
	return size, err
}

// EncodeRow appends the encoding of every datum in the row, prefixed with
// the column count.
func EncodeRow(buf []byte, r Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, d := range r {
		buf = EncodeDatum(buf, d)
	}
	return buf
}

// rowHeader reads an encoded row's column count. Every datum encodes to
// at least one byte, so a count beyond the remaining bytes is
// corruption; rejecting it here keeps a hostile header from forcing a
// huge allocation in the callers.
func rowHeader(buf []byte) (ncols, consumed int, err error) {
	n, consumed := binary.Uvarint(buf)
	if consumed <= 0 {
		return 0, 0, fmt.Errorf("types: truncated row header")
	}
	if n > uint64(len(buf)-consumed) {
		return 0, 0, fmt.Errorf("types: row header claims %d columns, only %d bytes left", n, len(buf)-consumed)
	}
	return int(n), consumed, nil
}

// DecodeRow decodes a row produced by EncodeRow, returning the row and the
// number of bytes consumed. It never panics on truncated or corrupt
// input.
func DecodeRow(buf []byte) (Row, int, error) {
	n, pos, err := rowHeader(buf)
	if err != nil {
		return nil, 0, err
	}
	row := make(Row, n)
	for i := range row {
		sz, err := decodeInto(buf[pos:], &row[i])
		if err != nil {
			return nil, 0, fmt.Errorf("column %d: %w", i, err)
		}
		pos += sz
	}
	return row, pos, nil
}

// DecodeRowVecs walks one encoded row once and appends only the columns
// the caller wants to column builders: stored column c goes to
// cols[slot[c]] when slot[c] >= 0, and every other column — those past
// len(slot) too — is stepped over with SkipDatum, which stores nothing
// and copies no string. It returns the bytes consumed and the stored
// column count, so the caller can tell a row too narrow for its
// projection. Truncation inside a skipped column is reported like any
// other corruption.
func DecodeRowVecs(buf []byte, slot []int, cols []VecBuilder) (consumed, ncols int, err error) {
	ncols, pos, err := rowHeader(buf)
	if err != nil {
		return 0, 0, err
	}
	for c := 0; c < ncols; c++ {
		var sz int
		if c < len(slot) && slot[c] >= 0 {
			sz, err = cols[slot[c]].AppendEncoded(buf[pos:])
		} else {
			sz, err = SkipDatum(buf[pos:])
		}
		if err != nil {
			return 0, 0, fmt.Errorf("column %d: %w", c, err)
		}
		pos += sz
	}
	return pos, ncols, nil
}

// FNV-1a, 64 bit: the hash behind data placement. It is written out here
// rather than taken from hash/fnv so that hashing a row is a loop over
// registers: no hash.Hash value, no scratch slice that escapes.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvByte folds one byte into h.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvUint64 folds the eight bytes of v into h, most significant first.
func fnvUint64(h, v uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h = fnvByte(h, byte(v>>shift))
	}
	return h
}

// hashDatum folds a normalized representation of d into h so that datums
// that compare equal hash equal (INT32 7 and INT64 7, decimals of
// different scales, -0.0 and 0.0, every NaN): a tag byte, then the value.
// Stored rows were placed by these exact bytes, so they never change; a
// NaN hashes as math.NaN(), the bits a parsed 'NaN' has.
func hashDatum(h uint64, d *Datum) uint64 {
	switch d.K {
	case KindNull:
		return fnvByte(h, 0)
	case KindBool:
		return fnvByte(fnvByte(h, 1), byte(d.I))
	case KindInt32, KindInt64:
		return fnvUint64(fnvByte(h, 2), uint64(d.I))
	case KindFloat64:
		f := d.F
		switch {
		case f == 0:
			f = 0 // -0.0 equals 0.0
		case f != f:
			f = math.NaN() // NaN equals NaN
		}
		return fnvUint64(fnvByte(h, 3), math.Float64bits(f))
	case KindDecimal:
		u, sc := StripZeros(d.I, d.Scale)
		if sc == 0 {
			// Integral decimals hash like integers.
			return fnvUint64(fnvByte(h, 2), uint64(u))
		}
		return fnvUint64(fnvByte(fnvByte(h, 4), byte(sc)), uint64(u))
	case KindString, KindBytes:
		h = fnvByte(h, 5)
		for i := 0; i < len(d.S); i++ {
			h = fnvByte(h, d.S[i])
		}
		return h
	case KindDate:
		return fnvUint64(fnvByte(h, 6), uint64(d.I))
	}
	return h
}

// HashRowCols returns a stable 64-bit hash of the datums at cols, used by
// hash distribution and the redistribute motion. An empty cols hashes the
// whole row.
func HashRowCols(r Row, cols []int) uint64 {
	h := uint64(fnvOffset64)
	if len(cols) == 0 {
		for i := range r {
			h = hashDatum(h, &r[i])
		}
		return h
	}
	for _, c := range cols {
		h = hashDatum(h, &r[c])
	}
	return h
}
