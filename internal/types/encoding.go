package types

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
)

// EncodeDatum appends a self-describing binary encoding of d to buf.
// The encoding is used by the storage formats, the interconnect, and
// serialized plans; DecodeDatum reverses it.
func EncodeDatum(buf []byte, d Datum) []byte {
	buf = append(buf, byte(d.K))
	switch d.K {
	case KindNull:
	case KindBool:
		buf = append(buf, byte(d.I))
	case KindInt32, KindInt64, KindDate:
		buf = binary.AppendVarint(buf, d.I)
	case KindFloat64:
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(d.F))
	case KindDecimal:
		buf = append(buf, byte(d.Scale))
		buf = binary.AppendVarint(buf, d.I)
	case KindString, KindBytes:
		buf = binary.AppendUvarint(buf, uint64(len(d.S)))
		buf = append(buf, d.S...)
	default:
		panic(fmt.Sprintf("types: encode of bad kind %d", d.K))
	}
	return buf
}

// DecodeDatum decodes one datum from buf, returning it and the number of
// bytes consumed.
func DecodeDatum(buf []byte) (Datum, int, error) {
	if len(buf) == 0 {
		return Null, 0, fmt.Errorf("types: decode on empty buffer")
	}
	k := Kind(buf[0])
	pos := 1
	switch k {
	case KindNull:
		return Null, pos, nil
	case KindBool:
		if len(buf) < 2 {
			return Null, 0, fmt.Errorf("types: truncated bool")
		}
		return Datum{K: KindBool, I: int64(buf[1])}, 2, nil
	case KindInt32, KindInt64, KindDate:
		v, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return Null, 0, fmt.Errorf("types: truncated varint")
		}
		return Datum{K: k, I: v}, pos + n, nil
	case KindFloat64:
		if len(buf) < pos+8 {
			return Null, 0, fmt.Errorf("types: truncated float")
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(buf[pos:]))
		return Datum{K: KindFloat64, F: f}, pos + 8, nil
	case KindDecimal:
		if len(buf) < pos+1 {
			return Null, 0, fmt.Errorf("types: truncated decimal")
		}
		scale := int8(buf[pos])
		pos++
		v, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return Null, 0, fmt.Errorf("types: truncated decimal value")
		}
		return Datum{K: KindDecimal, I: v, Scale: scale}, pos + n, nil
	case KindString, KindBytes:
		l, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return Null, 0, fmt.Errorf("types: truncated string length")
		}
		pos += n
		if uint64(len(buf)-pos) < l {
			return Null, 0, fmt.Errorf("types: truncated string body")
		}
		return Datum{K: k, S: string(buf[pos : pos+int(l)])}, pos + int(l), nil
	default:
		return Null, 0, fmt.Errorf("types: decode of bad kind %d", k)
	}
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
		d, sz, err := DecodeDatum(buf[pos:])
		if err != nil {
			return nil, 0, fmt.Errorf("column %d: %w", i, err)
		}
		row[i] = d
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

// HashDatum feeds a normalized representation of d into h so that datums
// that compare equal hash equal (e.g. INT32 7 and INT64 7, and decimals
// with different scales).
func HashDatum(h hash.Hash, d Datum) {
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
		binary.BigEndian.PutUint64(tmp[1:9], math.Float64bits(d.F))
		h.Write(tmp[:9])
	case KindDecimal:
		// Normalize by stripping trailing zeros of the unscaled value.
		u, sc := d.I, d.Scale
		for sc > 0 && u%10 == 0 {
			u /= 10
			sc--
		}
		if sc == 0 {
			// Integral decimals hash like integers.
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

// HashRowCols returns a stable 64-bit hash of the datums at cols, used by
// hash distribution and the redistribute motion. An empty cols hashes the
// whole row.
func HashRowCols(r Row, cols []int) uint64 {
	h := fnv.New64a()
	if len(cols) == 0 {
		for _, d := range r {
			HashDatum(h, d)
		}
		return h.Sum64()
	}
	for _, c := range cols {
		HashDatum(h, r[c])
	}
	return h.Sum64()
}
