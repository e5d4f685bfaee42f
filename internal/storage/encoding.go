package storage

import (
	"encoding/binary"
	"fmt"

	"hawq/internal/expr"
	"hawq/internal/types"
)

// Per-page lightweight encodings (the enc byte in a page header).
// The payload these describe is what gets compressed by the block
// codec, so a well-encoded page is both smaller on disk and cheaper to
// evaluate: predicates run once per run or per dictionary entry.
const (
	// pageEncFlat is one EncodeDatum per row.
	pageEncFlat = 0
	// pageEncRLE stores (runLen uvarint, EncodeDatum value) pairs.
	pageEncRLE = 1
	// pageEncDict stores a dictionary (count uvarint, then the entries)
	// followed by one uvarint code per row.
	pageEncDict = 2
)

// maxDictEntries caps the per-page dictionary. A page whose column
// exceeds it is not dictionary-encodable — a 64 KiB page with more
// distinct strings than this gains little from a dictionary anyway.
const maxDictEntries = 256

// encodePage picks the cheapest lightweight encoding for one page of a
// column and returns the encoding id and the raw (pre-compression)
// payload appended to dst. The policy is deliberately simple and fully
// deterministic: RLE when the average run length reaches 2 (sorted or
// low-cardinality clustered data), a dictionary for string pages whose
// distinct count is small, flat otherwise.
func encodePage(dst []byte, vals []types.Datum) (byte, []byte) {
	n := len(vals)
	if n == 0 {
		return pageEncFlat, dst
	}
	runs := 1
	stringsOnly := vals[0].K == types.KindString || vals[0].K == types.KindNull
	for i := 1; i < n; i++ {
		if vals[i] != vals[i-1] {
			runs++
		}
		if k := vals[i].K; k != types.KindString && k != types.KindNull {
			stringsOnly = false
		}
	}
	if runs*2 <= n {
		for i := 0; i < n; {
			j := i + 1
			for j < n && vals[j] == vals[i] {
				j++
			}
			dst = binary.AppendUvarint(dst, uint64(j-i))
			dst = types.EncodeDatum(dst, vals[i])
			i = j
		}
		return pageEncRLE, dst
	}
	if stringsOnly {
		// Build the dictionary in first-appearance order so identical
		// input pages always produce identical bytes (on-disk output
		// must not depend on map iteration order).
		codes := make([]int32, n)
		index := make(map[types.Datum]int32, 16)
		var entries []types.Datum
		ok := true
		for i, d := range vals {
			c, seen := index[d]
			if !seen {
				if len(entries) >= maxDictEntries {
					ok = false
					break
				}
				c = int32(len(entries))
				index[d] = c
				entries = append(entries, d)
			}
			codes[i] = c
		}
		if ok && n >= 2*len(entries) {
			dst = binary.AppendUvarint(dst, uint64(len(entries)))
			for _, e := range entries {
				dst = types.EncodeDatum(dst, e)
			}
			for _, c := range codes {
				dst = binary.AppendUvarint(dst, uint64(c))
			}
			return pageEncDict, dst
		}
	}
	for _, d := range vals {
		dst = types.EncodeDatum(dst, d)
	}
	return pageEncFlat, dst
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

// Zone-map flags (first byte of the zone bytes in a v2 page header).
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

// buildZone appends the zone map for one page of a column: min/max over
// the non-NULL values, or the all-NULL marker. A page with values the
// comparator can't order (mixed incomparable kinds, which a typed
// column never produces) degrades to zoneNone rather than lying.
func buildZone(dst []byte, vals []types.Datum) []byte {
	var minD, maxD types.Datum
	seen := false
	for _, d := range vals {
		if d.IsNull() {
			continue
		}
		if !seen {
			minD, maxD, seen = d, d, true
			continue
		}
		if !types.Comparable(d.K, minD.K) {
			return append(dst, zoneNone)
		}
		if types.Compare(d, minD) < 0 {
			minD = d
		}
		if types.Compare(d, maxD) > 0 {
			maxD = d
		}
	}
	if !seen {
		return append(dst, zoneAllNull)
	}
	dst = append(dst, zoneMinMax)
	dst = types.EncodeDatum(dst, minD)
	return types.EncodeDatum(dst, maxD)
}

// ZonePred names expr.ColCmp only because the benchmark module's scan
// probe still spells it so; everything in this module says expr.ColCmp.
type ZonePred = expr.ColCmp

// ZoneGe is expr.OpGe, kept for the same probe.
const ZoneGe = expr.OpGe

// ZoneLt is expr.OpLt, kept for the same probe.
const ZoneLt = expr.OpLt

// zoneMayMatch reports whether any row of a page whose zone bytes are
// zone could satisfy pred, a comparison whose Col indexes the scan's
// projected columns. NULL rows never satisfy a comparison, so an
// all-NULL page is always skippable, and any other page as soon as no
// value in [min, max] can pass. Any parsing or comparability doubt
// answers true — pruning is an optimization, never a correctness gate.
func zoneMayMatch(zone []byte, pred expr.ColCmp) bool {
	if len(zone) == 0 {
		return true
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
		return err != nil || pred.MayMatch(minD, maxD)
	default:
		return true
	}
}

// pageMayMatch evaluates every pushed-down predicate on col against the
// page's zone bytes; one impossible conjunct rules the whole page out.
func pageMayMatch(zone []byte, col int, preds []expr.ColCmp) bool {
	for _, p := range preds {
		if p.Col != col {
			continue
		}
		if !zoneMayMatch(zone, p) {
			return false
		}
	}
	return true
}
