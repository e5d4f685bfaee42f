package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// lzCodec is a from-scratch byte-oriented LZ77 in the spirit of
// quicklz/snappy: a single pass with a small hash table of 4-byte
// sequences, favoring speed over ratio. It is registered under both the
// "quicklz" and "snappy" names (the paper uses quicklz for AO/CO and
// snappy for Parquet; both are "fast/light" schemes).
//
// Stream layout: a uvarint of the decompressed length, then a sequence of
// ops. Each op starts with a token byte: the high 4 bits encode the
// literal run length and the low 4 bits the match length minus minMatch;
// the value 15 in either nibble is extended by continuation bytes (255
// means "add 255 and continue"). Literal bytes follow the length
// extensions, then a 2-byte little-endian match offset when the match
// length is non-zero.
type lzCodec struct {
	name string
}

const (
	lzMinMatch  = 4
	lzHashBits  = 14
	lzHashSize  = 1 << lzHashBits
	lzMaxOffset = 1 << 16
)

func (c lzCodec) Name() string { return c.name }

func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzHashBits)
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// lzTable is the hash table, kept between calls so that none clears 64 KiB.
// Position i is stored as base+i and base then passes the input, so an older
// entry, or a new table's zero (base starts at 1), reads as the cleared -1.
type lzTable struct {
	pos  [lzHashSize]int32
	base int32
}

var lzTables = sync.Pool{New: func() any { return &lzTable{base: 1} }}

func (c lzCodec) Compress(dst, src []byte) []byte {
	t := lzTables.Get().(*lzTable)
	defer lzTables.Put(t)
	return t.compress(dst, src)
}

func (t *lzTable) compress(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	n := len(src)
	if int64(t.base)+int64(n) > math.MaxInt32 {
		*t = lzTable{base: 1}
	}
	base := t.base
	t.base += int32(n)
	litStart := 0
	i := 0
	for i+lzMinMatch <= n {
		h := lzHash(load32(src, i))
		cand := int(t.pos[h] - base)
		t.pos[h] = base + int32(i)
		if cand >= 0 && i-cand < lzMaxOffset && load32(src, cand) == load32(src, i) {
			// Extend the match forward.
			m := i + lzMinMatch
			cm := cand + lzMinMatch
			for m < n && src[m] == src[cm] {
				m++
				cm++
			}
			dst = lzEmit(dst, src[litStart:i], i-cand, m-i)
			// Index a couple of positions inside the match to help
			// find subsequent overlapping matches.
			if m+lzMinMatch <= n {
				t.pos[lzHash(load32(src, m-1))] = base + int32(m-1)
			}
			i = m
			litStart = i
			continue
		}
		i++
	}
	if litStart < n {
		dst = lzEmit(dst, src[litStart:], 0, 0)
	}
	return dst
}

// lzEmit appends one op: a literal run followed by an optional match.
func lzEmit(dst, lit []byte, offset, matchLen int) []byte {
	litLen := len(lit)
	ml := 0
	if matchLen > 0 {
		ml = matchLen - lzMinMatch
	}
	token := byte(0)
	if litLen >= 15 {
		token |= 15 << 4
	} else {
		token |= byte(litLen) << 4
	}
	if ml >= 15 {
		token |= 15
	} else {
		token |= byte(ml)
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = lzExtend(dst, litLen-15)
	}
	if ml >= 15 {
		dst = lzExtend(dst, ml-15)
	}
	dst = append(dst, lit...)
	if matchLen > 0 {
		dst = append(dst, byte(offset), byte(offset>>8))
	}
	return dst
}

func lzExtend(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

func (c lzCodec) Decompress(dst, src []byte) ([]byte, error) {
	want, consumed := binary.Uvarint(src)
	if consumed <= 0 {
		return dst, fmt.Errorf("%s: truncated header", c.name)
	}
	src = src[consumed:]
	// No stream byte yields more than 255 output bytes (a length
	// extension byte), so a larger claim is corruption; refusing it here
	// is what lets the header size the output buffer once instead of
	// growing into it.
	if want > 255*uint64(len(src)) {
		return dst, fmt.Errorf("%s: header claims %d bytes from a %d-byte stream", c.name, want, len(src))
	}
	base := len(dst)
	out := dst
	if cap(out)-base < int(want) {
		out = make([]byte, base, base+int(want))
		copy(out, dst)
	}
	pos := 0
	for pos < len(src) {
		token := src[pos]
		pos++
		litLen := int(token >> 4)
		ml := int(token & 15)
		var err error
		if litLen == 15 {
			litLen, pos, err = lzReadExtend(src, pos, litLen)
			if err != nil {
				return dst, fmt.Errorf("%s: %w", c.name, err)
			}
		}
		if ml == 15 {
			ml, pos, err = lzReadExtend(src, pos, ml)
			if err != nil {
				return dst, fmt.Errorf("%s: %w", c.name, err)
			}
		}
		if pos+litLen > len(src) {
			return dst, fmt.Errorf("%s: truncated literals", c.name)
		}
		out = append(out, src[pos:pos+litLen]...)
		pos += litLen
		// A trailing op may be literal-only (no match follows).
		if pos == len(src) {
			break
		}
		if pos+2 > len(src) {
			return dst, fmt.Errorf("%s: truncated offset", c.name)
		}
		offset := int(src[pos]) | int(src[pos+1])<<8
		pos += 2
		matchLen := ml + lzMinMatch
		start := len(out) - offset
		if offset == 0 || start < base {
			return dst, fmt.Errorf("%s: match offset outside the block", c.name)
		}
		if offset >= matchLen {
			out = append(out, out[start:start+matchLen]...)
			continue
		}
		// The match overlaps its own output (a short period repeated):
		// each byte may be one this loop just wrote.
		for k := 0; k < matchLen; k++ {
			out = append(out, out[start+k])
		}
	}
	if len(out)-base != int(want) {
		return dst, fmt.Errorf("%s: decompressed %d bytes, want %d", c.name, len(out)-base, want)
	}
	return out, nil
}

func lzReadExtend(src []byte, pos, v int) (int, int, error) {
	for {
		if pos >= len(src) {
			return 0, 0, fmt.Errorf("truncated length extension")
		}
		b := src[pos]
		pos++
		v += int(b)
		if b != 255 {
			return v, pos, nil
		}
	}
}

// rleCodec is a byte-level run-length encoder used for CO columns with
// long runs (the paper lists RLE among the CO compression options).
// Layout: uvarint decompressed length, then (uvarint runLen, byte value)
// pairs for runs >= 4 and (uvarint 0, uvarint litLen, bytes) for literal
// stretches.
type rleCodec struct{}

func (rleCodec) Name() string { return "rle" }

func (rleCodec) Compress(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	i := 0
	litStart := 0
	flushLit := func(end int) []byte {
		if end > litStart {
			dst = binary.AppendUvarint(dst, 0)
			dst = binary.AppendUvarint(dst, uint64(end-litStart))
			dst = append(dst, src[litStart:end]...)
		}
		return dst
	}
	for i < len(src) {
		j := i
		for j < len(src) && src[j] == src[i] {
			j++
		}
		if j-i >= 4 {
			dst = flushLit(i)
			dst = binary.AppendUvarint(dst, uint64(j-i))
			dst = append(dst, src[i])
			litStart = j
		}
		i = j
	}
	dst = flushLit(len(src))
	return dst
}

func (rleCodec) Decompress(dst, src []byte) ([]byte, error) {
	want, consumed := binary.Uvarint(src)
	if consumed <= 0 {
		return dst, fmt.Errorf("rle: truncated header")
	}
	pos := consumed
	base := len(dst)
	out := dst
	for pos < len(src) {
		runLen, n := binary.Uvarint(src[pos:])
		if n <= 0 {
			return dst, fmt.Errorf("rle: truncated run length")
		}
		pos += n
		if runLen == 0 {
			litLen, n := binary.Uvarint(src[pos:])
			if n <= 0 {
				return dst, fmt.Errorf("rle: truncated literal length")
			}
			pos += n
			if pos+int(litLen) > len(src) {
				return dst, fmt.Errorf("rle: truncated literals")
			}
			out = append(out, src[pos:pos+int(litLen)]...)
			pos += int(litLen)
			continue
		}
		if pos >= len(src) {
			return dst, fmt.Errorf("rle: truncated run byte")
		}
		b := src[pos]
		pos++
		for k := uint64(0); k < runLen; k++ {
			out = append(out, b)
		}
	}
	if uint64(len(out)-base) != want {
		return dst, fmt.Errorf("rle: decompressed %d bytes, want %d", len(out)-base, want)
	}
	return out, nil
}
