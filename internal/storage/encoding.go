package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/types"
)

// Per-chunk encodings (the enc byte of a chunk in a group header). The
// payload these describe is what gets compressed by the block codec, so
// a well-encoded page is both smaller on disk and cheaper to evaluate:
// predicates run once per run or per dictionary entry.
const (
	// pageEncFlat is one EncodeDatum per row.
	pageEncFlat = 0
	// pageEncRLE stores (runLen uvarint, EncodeDatum value) pairs.
	pageEncRLE = 1
	// pageEncDict stores a dictionary (count uvarint, then the entries)
	// followed by one uvarint code per row.
	pageEncDict = 2
	// pageEncRows is an AO chunk: one EncodeRow frame per row, every
	// column. It is no column page (decodePage refuses it) and the only
	// chunk the row transposition accepts, which is what tells a lane
	// read under the wrong orientation from its own.
	pageEncRows = 3
)

// maxDictEntries caps the per-page dictionary. A page whose column
// exceeds it is not dictionary-encodable — a 64 KiB page with more
// distinct strings than this gains little from a dictionary anyway.
const maxDictEntries = 256

// pagePass is the one pass over a column page (encode): the page's
// runs, NULLs and range give its encoding, its zone map and its share of
// the lane's statistics (PageStats), so no value is ranged twice. Its
// slices are scratch, reused from page to page.
type pagePass struct {
	catalog.PageStats               // Min and Max stay NULL under zoneNone
	raw, zone         []byte        // the page's payload and zone map
	starts            []int32       // each run's first row, then len(vals)
	strs              bool          // every value is a string or NULL
	stored            []types.Datum // the run values or dictionary entries
}

// same reports whether a and b are one value to a run: every field
// equal, a DOUBLE's by its bits, so −0 and 0 are two values and a NaN
// repeats as itself.
func same(a, b *types.Datum) bool {
	return a.K == b.K && a.Scale == b.Scale && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// scan is the pass, and builds the zone map. Only a run's first value is
// ranged: the same value again cannot move the range. A page with values
// the comparator can't order (mixed incomparable kinds, which a typed
// column never produces) degrades to zoneNone rather than lying.
func (p *pagePass) scan(vals []types.Datum) {
	zone := byte(zoneAllNull)
	p.starts, p.Nulls, p.Min, p.Max, p.strs = p.starts[:0], 0, types.Null, types.Null, true
	for i := range vals {
		d := &vals[i]
		if d.K == types.KindNull {
			p.Nulls++
		}
		if i > 0 && same(d, &vals[i-1]) {
			continue
		}
		p.starts = append(p.starts, int32(i))
		p.strs = p.strs && (d.K == types.KindString || d.K == types.KindNull)
		switch {
		case d.K == types.KindNull, zone == zoneNone:
		case zone == zoneAllNull:
			p.Min, p.Max, zone = *d, *d, zoneMinMax
		case !types.Comparable(d.K, p.Min.K):
			p.Min, p.Max, zone = types.Null, types.Null, zoneNone
		default:
			if types.Compare(*d, p.Min) < 0 {
				p.Min = *d
			}
			if types.Compare(*d, p.Max) > 0 {
				p.Max = *d
			}
		}
	}
	p.starts = append(p.starts, int32(len(vals)))
	if p.zone = append(p.zone[:0], zone); zone == zoneMinMax {
		p.zone = types.EncodeDatum(types.EncodeDatum(p.zone, p.Min), p.Max)
	}
}

// encode makes the pass over a non-empty page of a column, leaves the
// raw (pre-compression) payload of the cheapest lightweight encoding in
// p.raw and what it stores in p.Values, and returns the encoding's id.
// The policy is deliberately simple and fully deterministic: RLE when
// the average run length reaches 2 (sorted or low-cardinality clustered
// data), a dictionary for string pages whose distinct count is small,
// flat otherwise.
func (p *pagePass) encode(vals []types.Datum) byte {
	p.scan(vals)
	n, runs := len(vals), len(p.starts)-1
	p.raw, p.stored = p.raw[:0], p.stored[:0]
	if runs*2 <= n {
		for r, at := range p.starts[:runs] {
			p.raw = types.EncodeDatum(binary.AppendUvarint(p.raw, uint64(p.starts[r+1]-at)), vals[at])
			p.stored = append(p.stored, vals[at])
		}
		p.Values = p.stored
		return pageEncRLE
	}
	if p.strs {
		// Entries in first-appearance order (on-disk bytes must not
		// depend on map iteration order), looked up once a run; past
		// either bound the page is lost to a dictionary.
		codes, index := make([]int32, 0, n), make(map[types.Datum]int32, 16)
		for r, at := range p.starts[:runs] {
			c, seen := index[vals[at]]
			if !seen {
				if len(p.stored) == maxDictEntries || 2*(len(p.stored)+1) > n {
					codes = nil
					break
				}
				c = int32(len(p.stored))
				index[vals[at]] = c
				p.stored = append(p.stored, vals[at])
			}
			for range p.starts[r+1] - at {
				codes = append(codes, c)
			}
		}
		if codes != nil {
			p.Values = p.stored
			p.raw = binary.AppendUvarint(p.raw, uint64(len(p.stored)))
			for _, e := range p.stored {
				p.raw = types.EncodeDatum(p.raw, e)
			}
			for _, c := range codes {
				p.raw = binary.AppendUvarint(p.raw, uint64(c))
			}
			return pageEncDict
		}
	}
	p.Values = vals
	for _, d := range vals {
		p.raw = types.EncodeDatum(p.raw, d)
	}
	return pageEncFlat
}

// decodePage decodes one page payload into v, typed: a flat page's
// rows, a run-length page's run values or a dictionary page's entries
// go through b into pointer-free storage (Mixed only when the values do
// not share one kind and scale), and the runs or codes beside them. This
// is the one decode a page ever gets: what it leaves in v is what the
// block cache keeps and every kernel reads. exact asks for slices of
// v's own, sized to the page, for a vector the cache will keep.
func decodePage(b *types.VecBuilder, enc byte, raw []byte, rowCount int, v *types.Vector, exact bool) error {
	switch enc {
	case pageEncFlat:
		// Every row is at least a kind byte, so a row count beyond the
		// payload is corruption, not an allocation size.
		b.Reset(v, min(rowCount, len(raw)), exact)
		pos := 0
		for i := 0; i < rowCount; i++ {
			n, err := b.AppendEncoded(raw[pos:])
			if err != nil {
				return fmt.Errorf("storage: flat page row %d: %w", i, err)
			}
			pos += n
		}
		if pos != len(raw) {
			return fmt.Errorf("storage: %d trailing bytes after flat page", len(raw)-pos)
		}
		b.Finish()
		return nil
	case pageEncRLE:
		b.Reset(v, 0, exact)
		pos, total := 0, 0
		for pos < len(raw) {
			run, n := binary.Uvarint(raw[pos:])
			if n <= 0 || run == 0 {
				return fmt.Errorf("storage: bad RLE run header")
			}
			pos += n
			if run > uint64(rowCount-total) {
				return fmt.Errorf("storage: RLE runs exceed page row count %d", rowCount)
			}
			total += int(run)
			n, err := b.AppendEncoded(raw[pos:])
			if err != nil {
				return fmt.Errorf("storage: RLE value: %w", err)
			}
			pos += n
			v.Runs = append(v.Runs, int32(run))
		}
		if total != rowCount {
			return fmt.Errorf("storage: RLE runs cover %d of %d rows", total, rowCount)
		}
		b.Finish()
		v.Enc, v.N = types.VecRLE, rowCount
		return nil
	case pageEncDict:
		size, n := binary.Uvarint(raw)
		if n <= 0 || size > maxDictEntries {
			return fmt.Errorf("storage: bad dictionary size")
		}
		pos := n
		b.Reset(v, int(size), exact)
		for i := 0; i < int(size); i++ {
			n, err := b.AppendEncoded(raw[pos:])
			if err != nil {
				return fmt.Errorf("storage: dictionary entry %d: %w", i, err)
			}
			pos += n
		}
		b.Finish()
		if exact {
			v.Codes = make([]int32, 0, min(rowCount, len(raw)-pos))
		}
		for i := 0; i < rowCount; i++ {
			c, n := binary.Uvarint(raw[pos:])
			if n <= 0 {
				return fmt.Errorf("storage: truncated dictionary code %d", i)
			}
			if c >= size {
				return fmt.Errorf("storage: dictionary code %d out of range (%d entries)", c, size)
			}
			pos += n
			v.Codes = append(v.Codes, int32(c))
		}
		if pos != len(raw) {
			return fmt.Errorf("storage: %d trailing bytes after dictionary page", len(raw)-pos)
		}
		v.Enc, v.N = types.VecDict, rowCount
		return nil
	default:
		return fmt.Errorf("storage: unknown page encoding %d", enc)
	}
}

// Zone-map flags (first byte of a chunk's zone bytes).
const (
	// zoneNone means no zone information — the page may contain
	// anything, so it can never be skipped.
	zoneNone = 0x00
	// zoneMinMax is followed by EncodeDatum(min) and EncodeDatum(max)
	// over the page's non-NULL values.
	zoneMinMax = 0x01
	// zoneAllNull marks a page of only NULLs: every ordinary comparison
	// predicate fails on it, so it is always skippable.
	zoneAllNull = 0x02
)

// ZonePred names expr.ColCmp only because the benchmark module's scan
// probe still spells it so; everything in this module says expr.ColCmp.
type ZonePred = expr.ColCmp

// ZoneGe is expr.OpGe, kept for the same probe.
const ZoneGe = expr.OpGe

// ZoneLt is expr.OpLt, kept for the same probe.
const ZoneLt = expr.OpLt

// zoneMayMatch reports whether any row of a page of column col whose
// zone bytes are zone could satisfy every one of preds on col,
// comparisons whose Col indexes the scan's projected columns. NULL rows
// never satisfy a comparison, so an all-NULL page is always skippable,
// and any other page as soon as no value in [min, max] can pass one of
// them. Any parsing or comparability doubt answers true — pruning is an
// optimization, never a correctness gate.
func zoneMayMatch(zone []byte, col int, preds ...expr.ColCmp) bool {
	for _, p := range preds {
		if p.Col != col || len(zone) == 0 {
			continue
		}
		switch zone[0] {
		case zoneAllNull:
			return false
		case zoneMinMax:
			minD, n, err := types.DecodeDatum(zone[1:])
			if err != nil {
				return true
			}
			maxD, _, err := types.DecodeDatum(zone[1+n:])
			if err == nil && !p.MayMatch(minD, maxD) {
				return false
			}
		}
	}
	return true
}
