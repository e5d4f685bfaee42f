package types

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"hawq/internal/obs"
)

// VecEnc identifies the in-memory representation of a Vector's values.
// The encodings mirror the lightweight page encodings the storage
// formats write, so a scan can hand pages to the executor without
// eagerly decoding them.
type VecEnc uint8

const (
	// VecFlat stores one decoded Datum per row in Values.
	VecFlat VecEnc = iota
	// VecRaw stores the rows as a concatenated EncodeDatum stream in
	// Raw — nothing is decoded until a consumer asks. A v1 flat page
	// payload is a valid VecRaw vector as-is.
	VecRaw
	// VecRLE stores run-length-encoded values: Runs[k] consecutive rows
	// share the value Values[k].
	VecRLE
	// VecDict stores dictionary-encoded values: row i has the value
	// Values[Codes[i]].
	VecDict
)

// Vector is one column of an encoded batch. Kernels that understand an
// encoding operate on Values/Runs/Codes directly (evaluating a
// predicate once per run or per dictionary entry instead of once per
// row); everything else materializes through VecBatch.Materialize.
type Vector struct {
	// Enc selects which of the representation fields below are live.
	Enc VecEnc
	// N is the row count of the vector regardless of encoding.
	N int
	// Raw is the undecoded datum stream (VecRaw).
	Raw []byte
	// Values holds the per-row values (VecFlat), the per-run values
	// (VecRLE), or the dictionary entries (VecDict).
	Values []Datum
	// Runs holds the per-run lengths (VecRLE); they sum to N.
	Runs []int32
	// Codes holds the per-row dictionary indexes (VecDict).
	Codes []int32
	// Shared marks a vector whose slices belong to someone else — the
	// segment block cache hands the same vector to every scan that hits
	// it. A shared vector is read-only, and a pooled batch that carried
	// one drops the slices on reuse instead of appending into them.
	Shared bool
}

// reset clears the vector for reuse, retaining the capacity of slices it
// owns and letting go of slices it does not.
func (v *Vector) reset() {
	if v.Shared {
		*v = Vector{}
		return
	}
	v.Enc = VecFlat
	v.N = 0
	v.Raw = nil
	v.Values = v.Values[:0]
	v.Runs = v.Runs[:0]
	v.Codes = v.Codes[:0]
}

// datumSize is the in-memory size of one Datum, without its string bytes.
const datumSize = int64(unsafe.Sizeof(Datum{}))

// MemBytes returns the memory the vector's slices occupy, counting each
// value's string bytes once (values of one vector that share a backing
// string are still counted separately: an upper bound).
func (v *Vector) MemBytes() int64 {
	n := int64(cap(v.Raw)) + int64(cap(v.Values))*datumSize + int64(cap(v.Runs)+cap(v.Codes))*4
	for i := range v.Values {
		n += int64(len(v.Values[i].S))
	}
	return n
}

// FlatBuilder fills one VecFlat vector from encoded datums. String and
// bytes payloads are collected in one scratch buffer and become
// substrings of a single allocation in Finish, so a column of a
// thousand strings costs the collector two objects, not a thousand and
// one. The zero value is ready for Reset; reusing a builder reuses its
// scratch.
type FlatBuilder struct {
	v     *Vector
	vals  []Datum
	arena []byte
	// ends holds the end offset in arena of every string-kind value
	// appended so far, in order.
	ends []int32
}

// Reset points the builder at v, which Finish will make a VecFlat
// vector of up to rows values. With exact set, v gets a fresh slice of
// exactly that capacity (the caller means to keep the vector beyond the
// batch that carries it); otherwise v's own capacity is reused.
func (b *FlatBuilder) Reset(v *Vector, rows int, exact bool) {
	v.reset()
	if exact || cap(v.Values) < rows {
		v.Values = make([]Datum, 0, rows)
	}
	b.v, b.vals = v, v.Values
	b.arena = b.arena[:0]
	b.ends = b.ends[:0]
}

// AppendEncoded decodes the datum at the head of buf onto the vector and
// returns the bytes it occupied.
func (b *FlatBuilder) AppendEncoded(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("types: decode on empty buffer")
	}
	switch k := Kind(buf[0]); k {
	case KindInt32, KindInt64, KindDate:
		i, n := binary.Varint(buf[1:])
		if n <= 0 {
			return 0, fmt.Errorf("types: truncated varint")
		}
		b.vals = append(b.vals, Datum{K: k, I: i})
		return 1 + n, nil
	case KindString, KindBytes:
		l, n := binary.Uvarint(buf[1:])
		if n <= 0 {
			return 0, fmt.Errorf("types: truncated string length")
		}
		pos := 1 + n
		if uint64(len(buf)-pos) < l {
			return 0, fmt.Errorf("types: truncated string body")
		}
		b.arena = append(b.arena, buf[pos:pos+int(l)]...)
		b.ends = append(b.ends, int32(len(b.arena)))
		b.vals = append(b.vals, Datum{K: k})
		return pos + int(l), nil
	}
	d, n, err := DecodeDatum(buf)
	if err != nil {
		return 0, err
	}
	b.vals = append(b.vals, d)
	return n, nil
}

// Finish completes the vector: the values are handed over and every
// string-kind value receives its substring of the one backing
// allocation.
func (b *FlatBuilder) Finish() {
	v := b.v
	v.Values, v.N = b.vals, len(b.vals)
	b.v, b.vals = nil, nil
	if len(b.ends) == 0 {
		return
	}
	s := string(b.arena)
	k, start := 0, int32(0)
	for i := range v.Values {
		if d := &v.Values[i]; d.K == KindString || d.K == KindBytes {
			d.S = s[start:b.ends[k]]
			start = b.ends[k]
			k++
		}
	}
}

// SkipDatum returns the encoded size of the next datum in buf without
// materializing it — the selective-decode primitive that lets a reader
// step over rows a selection vector killed without allocating their
// string payloads.
func SkipDatum(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("types: skip on empty buffer")
	}
	k := Kind(buf[0])
	pos := 1
	switch k {
	case KindNull:
		return pos, nil
	case KindBool:
		if len(buf) < 2 {
			return 0, fmt.Errorf("types: truncated bool")
		}
		return 2, nil
	case KindInt32, KindInt64, KindDate:
		_, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("types: truncated varint")
		}
		return pos + n, nil
	case KindFloat64:
		if len(buf) < pos+8 {
			return 0, fmt.Errorf("types: truncated float")
		}
		return pos + 8, nil
	case KindDecimal:
		pos++ // scale byte
		if len(buf) < pos {
			return 0, fmt.Errorf("types: truncated decimal")
		}
		_, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("types: truncated decimal value")
		}
		return pos + n, nil
	case KindString, KindBytes:
		l, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("types: truncated string length")
		}
		pos += n
		if uint64(len(buf)-pos) < l {
			return 0, fmt.Errorf("types: truncated string body")
		}
		return pos + int(l), nil
	default:
		return 0, fmt.Errorf("types: skip of bad kind %d", k)
	}
}

// Decode appends all N row values of the vector to dst in row order,
// fully decoding whatever the encoding is. It is the generic
// decode-then-fallback path for consumers with no specialized kernel.
func (v *Vector) Decode(dst []Datum) ([]Datum, error) {
	switch v.Enc {
	case VecFlat:
		return append(dst, v.Values[:v.N]...), nil
	case VecRaw:
		pos := 0
		for i := 0; i < v.N; i++ {
			d, n, err := DecodeDatum(v.Raw[pos:])
			if err != nil {
				return dst, fmt.Errorf("types: vector row %d: %w", i, err)
			}
			dst = append(dst, d)
			pos += n
		}
		return dst, nil
	case VecRLE:
		for k, run := range v.Runs {
			for j := int32(0); j < run; j++ {
				dst = append(dst, v.Values[k])
			}
		}
		return dst, nil
	case VecDict:
		for _, c := range v.Codes[:v.N] {
			if int(c) >= len(v.Values) {
				return dst, fmt.Errorf("types: dict code %d out of range (%d entries)", c, len(v.Values))
			}
			dst = append(dst, v.Values[c])
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("types: decode of bad vector encoding %d", v.Enc)
	}
}

// VecBatch is a batch of encoded column vectors plus an optional
// selection: the unit the compressed-execution scan path hands to the
// executor. Like Batch it is pooled (GetVecBatch/PutVecBatch) and
// ownership transfers with the value; the receiver must return it.
type VecBatch struct {
	// Cols holds one vector per projected column; all share the row
	// count n.
	Cols []Vector
	n    int
	// Sel, when non-nil, is the sorted list of surviving row indexes
	// after encoded-domain filtering; nil means every row survives.
	Sel []int32
	// pooled marks a batch currently sitting in the pool; PutVecBatch
	// uses it to panic on a double return.
	pooled bool
}

// Reset clears the batch to ncols empty vectors, retaining capacity.
func (vb *VecBatch) Reset(ncols int) {
	if cap(vb.Cols) < ncols {
		vb.Cols = make([]Vector, ncols)
	}
	vb.Cols = vb.Cols[:ncols]
	for i := range vb.Cols {
		vb.Cols[i].reset()
	}
	vb.n = 0
	vb.Sel = nil
}

// SetLen fixes the batch row count; every column vector must carry
// exactly n rows.
func (vb *VecBatch) SetLen(n int) { vb.n = n }

// Len returns the row count before selection.
func (vb *VecBatch) Len() int { return vb.n }

// SelCount returns the number of rows surviving the selection vector
// (all of them when no selection has been applied).
func (vb *VecBatch) SelCount() int {
	if vb.Sel == nil {
		return vb.n
	}
	return len(vb.Sel)
}

// Materialize decodes the surviving rows of every column into b,
// resetting b first. Killed rows are stepped over without allocation
// (SkipDatum for raw streams, run arithmetic for RLE), which is what
// makes filtering before decode profitable.
func (vb *VecBatch) Materialize(b *Batch) error {
	b.Reset(len(vb.Cols))
	// Every column writes every surviving row's cell below, so the rows
	// need no initializing.
	b.extendRaw(vb.SelCount())
	if b.n == 0 {
		return nil
	}
	for j := range vb.Cols {
		if err := materializeCol(&vb.Cols[j], vb.Sel, b.arena[j:], b.width); err != nil {
			return err
		}
	}
	return nil
}

// materializeCol writes one column's surviving values into out, a view
// of a batch arena that starts at the column's cell of row 0: row i's
// cell is out[i*width]. sel is the selection vector (nil = all rows).
func materializeCol(v *Vector, sel []int32, out []Datum, width int) error {
	switch v.Enc {
	case VecFlat:
		if sel == nil {
			for i, d := range v.Values[:v.N] {
				out[i*width] = d
			}
			return nil
		}
		for oi, ri := range sel {
			out[oi*width] = v.Values[ri]
		}
		return nil
	case VecRaw:
		pos, next := 0, 0
		if sel == nil {
			for i := 0; i < v.N; i++ {
				d, n, err := DecodeDatum(v.Raw[pos:])
				if err != nil {
					return fmt.Errorf("types: vector row %d: %w", i, err)
				}
				out[i*width] = d
				pos += n
			}
			return nil
		}
		for oi, ri := range sel {
			for int32(next) < ri {
				n, err := SkipDatum(v.Raw[pos:])
				if err != nil {
					return fmt.Errorf("types: vector row %d: %w", next, err)
				}
				pos += n
				next++
			}
			d, n, err := DecodeDatum(v.Raw[pos:])
			if err != nil {
				return fmt.Errorf("types: vector row %d: %w", next, err)
			}
			out[oi*width] = d
			pos += n
			next++
		}
		return nil
	case VecRLE:
		if sel == nil {
			i := 0
			for k, run := range v.Runs {
				for r := int32(0); r < run; r++ {
					out[i*width] = v.Values[k]
					i++
				}
			}
			return nil
		}
		// sel is sorted ascending, so one forward walk over the runs
		// covers every selected row.
		k, runEnd := 0, int32(0)
		if len(v.Runs) > 0 {
			runEnd = v.Runs[0]
		}
		for oi, ri := range sel {
			for k < len(v.Runs) && ri >= runEnd {
				k++
				if k < len(v.Runs) {
					runEnd += v.Runs[k]
				}
			}
			if k >= len(v.Runs) {
				return fmt.Errorf("types: selection index %d beyond RLE runs (%d rows)", ri, v.N)
			}
			out[oi*width] = v.Values[k]
		}
		return nil
	case VecDict:
		if sel == nil {
			for i := 0; i < v.N; i++ {
				c := v.Codes[i]
				if int(c) >= len(v.Values) {
					return fmt.Errorf("types: dict code %d out of range (%d entries)", c, len(v.Values))
				}
				out[i*width] = v.Values[c]
			}
			return nil
		}
		for oi, ri := range sel {
			c := v.Codes[ri]
			if int(c) >= len(v.Values) {
				return fmt.Errorf("types: dict code %d out of range (%d entries)", c, len(v.Values))
			}
			out[oi*width] = v.Values[c]
		}
		return nil
	default:
		return fmt.Errorf("types: materialize of bad vector encoding %d", v.Enc)
	}
}

// vecBatchPool recycles encoded batches across scan pipeline stages.
var vecBatchPool = sync.Pool{New: func() any { return new(VecBatch) }}

// vecGets and vecPuts count vec-batch pool traffic; their difference is
// the number of encoded batches currently checked out (leaked ones show
// up as a non-zero residue, exactly like types.batch_in_use).
var vecGets, vecPuts atomic.Int64

// VecPoolStats reports cumulative GetVecBatch and PutVecBatch counts.
func VecPoolStats() (gets, puts int64) {
	return vecGets.Load(), vecPuts.Load()
}

// VecPoolInUse returns the number of encoded batches currently checked
// out of the pool (gets − puts).
func VecPoolInUse() int64 {
	return vecGets.Load() - vecPuts.Load()
}

// init publishes the vec-batch pool counters into the process-wide
// metrics registry alongside the row-batch ones.
func init() {
	obs.RegisterGauge("types.vecbatch_gets", func() int64 { return vecGets.Load() })
	obs.RegisterGauge("types.vecbatch_puts", func() int64 { return vecPuts.Load() })
	obs.RegisterGauge("types.vecbatch_in_use", VecPoolInUse)
}

// GetVecBatch returns a pooled encoded batch reset to ncols columns.
func GetVecBatch(ncols int) *VecBatch {
	vecGets.Add(1)
	vb := vecBatchPool.Get().(*VecBatch)
	vb.pooled = false
	vb.Reset(ncols)
	return vb
}

// PutVecBatch returns an encoded batch to the pool. The caller must not
// touch the batch (or any vector in it) afterwards; returning the same
// batch twice panics rather than silently aliasing its vectors to two
// future owners.
func PutVecBatch(vb *VecBatch) {
	if vb == nil {
		return
	}
	if vb.pooled {
		panic("types: PutVecBatch called twice on the same batch")
	}
	vb.pooled = true
	vecPuts.Add(1)
	vecBatchPool.Put(vb)
}
