package types

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"hawq/internal/obs"
)

// VecEnc says how a Vector's rows map onto its entries. The mappings
// mirror the lightweight page encodings the storage formats write, so a
// run-length or dictionary page reaches the executor with one entry per
// run or per distinct value, and a predicate is evaluated once per entry.
type VecEnc uint8

const (
	// VecFlat has one entry per row: row i is entry i.
	VecFlat VecEnc = iota
	// VecRLE has one entry per run: Runs[k] consecutive rows share
	// entry k.
	VecRLE
	// VecDict has one entry per dictionary value: row i is entry
	// Codes[i].
	VecDict
)

// VecClass says which of a Vector's storage fields hold its entries.
type VecClass uint8

const (
	// ClassNull: every entry is NULL and nothing is stored.
	ClassNull VecClass = iota
	// ClassInt: Ints (bool, int32, int64, date, decimal unscaled).
	ClassInt
	// ClassFloat: Floats.
	ClassFloat
	// ClassStr: Offs into Str (string, bytes).
	ClassStr
	// ClassMixed: Values, one Datum per entry.
	ClassMixed
)

// Vector is one column of a VecBatch: entries, and the mapping from rows
// onto them (Enc). Entries are stored typed and pointer-free — every
// non-NULL entry has the kind Kind (and, for decimals, the scale Scale),
// its value sits in Ints, Floats or Offs/Str according to Class, and a
// NULL entry is a set bit in Nulls over a zero value. The one exception
// is a column whose non-NULL entries do not share one kind and scale:
// it is Mixed and keeps a Datum per entry in Values.
type Vector struct {
	// Enc maps rows onto entries.
	Enc VecEnc
	// N is the row count regardless of encoding.
	N int
	// Kind and Scale describe every non-NULL entry of a typed vector;
	// Kind is KindNull when there is none.
	Kind  Kind
	Scale int8
	// Mixed marks the generic fallback: the entries are in Values.
	Mixed bool
	// Ints holds the entries of the integer-like kinds.
	Ints []int64
	// Floats holds DOUBLE entries.
	Floats []float64
	// Offs and Str hold string-like entries: entry e is
	// Str[Offs[e]:Offs[e+1]], so a column of strings is one allocation.
	Offs []int32
	Str  string
	// Nulls says which typed entries are NULL.
	Nulls NullBitmap
	// Values holds the entries of a Mixed vector.
	Values []Datum
	// Runs holds the per-run lengths (VecRLE); they sum to N.
	Runs []int32
	// Codes holds the per-row entry indexes (VecDict).
	Codes []int32
	// Shared marks a vector whose slices belong to someone else — the
	// segment block cache hands the same vector to every scan that hits
	// it. A shared vector is read-only, and a pooled batch that carried
	// one drops the slices on reuse instead of appending into them.
	Shared bool
}

// NullBitmap has bit e set when entry e is NULL, 64 entries a word. It
// need not reach past its last set bit: it is empty when no entry is
// NULL, and an entry beyond its words is not NULL. This type is the only
// code that knows the layout.
type NullBitmap []uint64

// At reports whether entry e is NULL.
func (b NullBitmap) At(e int) bool {
	w := uint(e) >> 6
	return w < uint(len(b)) && b[w]>>(uint(e)&63)&1 != 0
}

// Set marks entry e NULL, growing the bitmap to reach it.
func (b *NullBitmap) Set(e int) {
	for len(*b) <= e>>6 {
		*b = append(*b, 0)
	}
	(*b)[e>>6] |= 1 << (uint(e) & 63)
}

// Or marks NULL every entry that is NULL in o.
func (b *NullBitmap) Or(o NullBitmap) {
	for len(*b) < len(o) {
		*b = append(*b, 0)
	}
	for i, w := range o {
		(*b)[i] |= w
	}
}

// reset clears the vector for reuse, retaining the capacity of slices it
// owns and letting go of slices it does not.
func (v *Vector) reset() {
	if v.Shared {
		*v = Vector{}
		return
	}
	*v = Vector{
		Ints: v.Ints[:0], Floats: v.Floats[:0], Offs: v.Offs[:0], Nulls: v.Nulls[:0],
		Values: v.Values[:0], Runs: v.Runs[:0], Codes: v.Codes[:0],
	}
}

// Class returns where the entries are stored.
func (v *Vector) Class() VecClass {
	if v.Mixed {
		return ClassMixed
	}
	switch v.Kind {
	case KindNull:
		return ClassNull
	case KindFloat64:
		return ClassFloat
	case KindString, KindBytes:
		return ClassStr
	default:
		return ClassInt
	}
}

// Entries returns the number of entries: rows of a flat vector, runs,
// or dictionary values (0 for a dictionary of only NULLs, whose codes
// say nothing).
func (v *Vector) Entries() int {
	switch v.Enc {
	case VecFlat:
		return v.N
	case VecRLE:
		return len(v.Runs)
	}
	switch v.Class() {
	case ClassInt:
		return len(v.Ints)
	case ClassFloat:
		return len(v.Floats)
	case ClassStr:
		return len(v.Offs) - 1
	case ClassMixed:
		return len(v.Values)
	}
	return 0
}

// Null reports whether entry e is NULL.
func (v *Vector) Null(e int) bool {
	switch {
	case v.Mixed:
		return v.Values[e].K == KindNull
	case v.Kind == KindNull:
		return true
	}
	return v.Nulls.At(e)
}

// Text returns string-like entry e (the empty string for a NULL).
func (v *Vector) Text(e int) string { return v.Str[v.Offs[e]:v.Offs[e+1]] }

// Datum returns entry e as a Datum, exactly as DecodeDatum would have
// produced it from the stored bytes.
func (v *Vector) Datum(e int) Datum {
	if v.Mixed {
		return v.Values[e]
	}
	if v.Null(e) {
		return Null
	}
	switch v.Class() {
	case ClassFloat:
		return Datum{K: KindFloat64, F: v.Floats[e]}
	case ClassStr:
		return Datum{K: v.Kind, S: v.Text(e)}
	}
	return Datum{K: v.Kind, Scale: v.Scale, I: v.Ints[e]}
}

// datumSize is the in-memory size of one Datum, without its string bytes.
const datumSize = int64(unsafe.Sizeof(Datum{}))

// MemBytes returns the memory the vector's slices occupy, counting each
// Mixed value's string bytes once.
func (v *Vector) MemBytes() int64 {
	n := int64(cap(v.Ints)+cap(v.Floats)+cap(v.Nulls))*8 + int64(cap(v.Offs)+cap(v.Runs)+cap(v.Codes))*4 +
		int64(len(v.Str)) + int64(cap(v.Values))*datumSize
	for i := range v.Values {
		n += int64(len(v.Values[i].S))
	}
	return n
}

// EntryIndex returns the entry of every surviving row — every row when
// sel is nil, else the rows sel lists in ascending order. A nil result
// means row i is entry i. The result may be sel, v.Codes, or scratch
// (grown as needed and returned for reuse); it is read-only.
func (v *Vector) EntryIndex(sel, scratch []int32) (idx, grown []int32) {
	switch v.Enc {
	case VecDict:
		if sel == nil {
			return v.Codes[:v.N], scratch
		}
		scratch = scratch[:0]
		for _, ri := range sel {
			scratch = append(scratch, v.Codes[ri])
		}
		return scratch, scratch
	case VecRLE:
		scratch = scratch[:0]
		if sel == nil {
			for k, run := range v.Runs {
				for r := int32(0); r < run; r++ {
					scratch = append(scratch, int32(k))
				}
			}
			return scratch, scratch
		}
		// sel is sorted ascending, so one forward walk over the runs
		// covers every selected row.
		k, runEnd := 0, int32(0)
		for _, ri := range sel {
			for ri >= runEnd {
				runEnd += v.Runs[k]
				k++
			}
			scratch = append(scratch, int32(k-1))
		}
		return scratch, scratch
	}
	return sel, scratch
}

// VecBuilder fills a vector's entries from encoded datums or Datums. It
// stores them typed for as long as every non-NULL value shares the first
// one's kind and scale, and turns the vector Mixed at the first that
// does not. String and bytes payloads are collected in one scratch
// buffer and become the vector's single backing string in Finish. The
// zero value is ready for Reset; reusing a builder reuses its scratch.
type VecBuilder struct {
	v     *Vector
	n     int  // entries appended
	hint  int  // entries expected
	exact bool // v keeps no capacity it does not use
	// arena holds the string bytes of the entries appended so far.
	arena []byte
}

// Reset points the builder at v, which Finish will leave holding the
// appended entries as a flat vector (a caller building runs or a
// dictionary sets Enc, N and the mapping itself). hint is the expected
// entry count. With exact set, v gets fresh slices sized by hint (the
// caller means to keep the vector beyond the batch that carries it);
// otherwise v's own capacity is reused.
func (b *VecBuilder) Reset(v *Vector, hint int, exact bool) {
	if exact {
		*v = Vector{}
	} else {
		v.reset()
	}
	b.v, b.n, b.hint, b.exact = v, 0, hint, exact
	b.arena = b.arena[:0]
}

// fit reports whether the typed storage takes a value of kind k and
// scale next. The first non-NULL value fixes the vector's kind; a later
// one that differs turns the vector Mixed.
func (b *VecBuilder) fit(k Kind, scale int8) bool {
	// A Mixed vector's Kind is KindNull, which k never is.
	if b.v.Kind == k && b.v.Scale == scale {
		return true
	}
	return b.fitFirst(k, scale)
}

// fitFirst is fit for a value that does not continue the vector's kind:
// the first non-NULL one, whose kind the vector takes, or one that
// differs, which turns it Mixed.
func (b *VecBuilder) fitFirst(k Kind, scale int8) bool {
	v := b.v
	switch {
	case v.Mixed:
		return false
	case v.Kind != KindNull:
		b.demote()
		return false
	}
	// Every entry so far is NULL: a zero value each, and its null bit.
	v.Kind, v.Scale = k, scale
	size := max(b.hint, b.n+1)
	switch v.Class() {
	case ClassInt:
		v.Ints = zeros(v.Ints, b.n, size)
	case ClassFloat:
		v.Floats = zeros(v.Floats, b.n, size)
	case ClassStr:
		v.Offs = zeros(v.Offs, b.n+1, size+1)
	}
	if b.n > 0 {
		v.Nulls = zeros(v.Nulls, 0, (size+63)/64)
		for e := 0; e < b.n; e++ {
			v.Nulls.Set(e)
		}
	}
	return true
}

// zeros returns s resized to n zero values, with room for size.
func zeros[S ~[]T, T int32 | int64 | uint64 | float64](s S, n, size int) S {
	if cap(s) < size {
		return make(S, n, size)
	}
	s = s[:n]
	clear(s)
	return s
}

// demote turns the vector Mixed, rewriting the typed entries appended
// so far as Datums.
func (b *VecBuilder) demote() {
	v := b.v
	v.Str = string(b.arena)
	vals := v.Values[:0]
	if cap(vals) < max(b.hint, b.n+1) {
		vals = make([]Datum, 0, max(b.hint, b.n+1))
	}
	for e := 0; e < b.n; e++ {
		vals = append(vals, v.Datum(e))
	}
	v.Mixed, v.Values = true, vals
	v.Kind, v.Scale, v.Str = KindNull, 0, ""
	v.Ints, v.Floats, v.Offs, v.Nulls = v.Ints[:0], v.Floats[:0], v.Offs[:0], v.Nulls[:0]
	if b.exact {
		v.Ints, v.Floats, v.Offs, v.Nulls = nil, nil, nil, nil
	}
	b.arena = b.arena[:0]
}

// appendNull appends a NULL entry.
func (b *VecBuilder) appendNull() {
	v := b.v
	switch v.Class() {
	case ClassMixed:
		v.Values = append(v.Values, Null)
	case ClassInt:
		v.Ints = append(v.Ints, 0)
	case ClassFloat:
		v.Floats = append(v.Floats, 0)
	case ClassStr:
		v.Offs = append(v.Offs, int32(len(b.arena)))
	}
	if !v.Mixed && v.Kind != KindNull {
		v.Nulls.Set(b.n)
	}
	b.n++
}

// appendInt appends an entry of an integer-like kind.
func (b *VecBuilder) appendInt(k Kind, scale int8, x int64) {
	if b.fit(k, scale) {
		b.v.Ints = append(b.v.Ints, x)
	} else {
		b.v.Values = append(b.v.Values, Datum{K: k, Scale: scale, I: x})
	}
	b.n++
}

// appendFloat appends a DOUBLE entry.
func (b *VecBuilder) appendFloat(f float64) {
	if b.fit(KindFloat64, 0) {
		b.v.Floats = append(b.v.Floats, f)
	} else {
		b.v.Values = append(b.v.Values, Datum{K: KindFloat64, F: f})
	}
	b.n++
}

// appendStr appends a string-like entry whose bytes are s. The bytes are
// copied into the arena; only the Mixed fallback keeps a string it was
// handed.
func appendStr[T string | []byte](b *VecBuilder, k Kind, s T) {
	if b.fit(k, 0) {
		b.arena = append(b.arena, s...)
		b.v.Offs = append(b.v.Offs, int32(len(b.arena)))
	} else {
		b.v.Values = append(b.v.Values, Datum{K: k, S: string(s)})
	}
	b.n++
}

// Append appends d.
func (b *VecBuilder) Append(d Datum) {
	switch d.K {
	case KindNull:
		b.appendNull()
	case KindFloat64:
		b.appendFloat(d.F)
	case KindString, KindBytes:
		appendStr(b, d.K, d.S)
	default:
		b.appendInt(d.K, d.Scale, d.I)
	}
}

// AppendEncoded decodes the datum at the head of buf onto the vector and
// returns the bytes it occupied.
func (b *VecBuilder) AppendEncoded(buf []byte) (int, error) {
	k, scale, i, f, body, size, err := parseDatum(buf)
	if err != nil {
		return 0, err
	}
	switch k {
	case KindNull:
		b.appendNull()
	case KindFloat64:
		b.appendFloat(f)
	case KindString, KindBytes:
		appendStr(b, k, body)
	default:
		b.appendInt(k, scale, i)
	}
	return size, nil
}

// Finish completes the vector as a flat one of the appended entries:
// string entries receive their one backing allocation.
func (b *VecBuilder) Finish() {
	v := b.v
	v.Enc, v.N = VecFlat, b.n
	if v.Class() == ClassStr {
		v.Str = string(b.arena)
	}
	b.v = nil
}

// VecBatch is a batch of column vectors plus an optional selection: the
// unit the scan hands to the executor. Like Batch it is pooled
// (GetVecBatch/PutVecBatch) and ownership transfers with the value; the
// receiver must return it.
type VecBatch struct {
	// Cols holds one vector per projected column; all share the row
	// count n.
	Cols []Vector
	n    int
	// Sel, when non-nil, is the sorted list of surviving row indexes
	// after filtering; nil means every row survives.
	Sel []int32
	// selBuf is the batch's own storage for Sel, idx its scratch for
	// entry indexes and verdict for Narrow's per-entry answers; all keep
	// their capacity across reuse.
	selBuf, idx []int32
	verdict     []uint8
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

// SelOut returns an empty slice with room for every surviving row, for
// a filter to append the rows it keeps and store back in Sel. When Sel
// is set the slice is Sel's own storage: a filter that walks Sel in
// order reads position i before it writes position k <= i.
func (vb *VecBatch) SelOut() []int32 {
	if vb.Sel != nil {
		return vb.Sel[:0]
	}
	if cap(vb.selBuf) < vb.n {
		vb.selBuf = make([]int32, 0, vb.n)
	}
	return vb.selBuf[:0]
}

// SetSel stores a filter's output, the rows it appended to SelOut. A
// filter every row of the batch passed leaves no selection at all, so
// what follows keeps its dense loops.
func (vb *VecBatch) SetSel(out []int32) {
	if len(out) == vb.n {
		out = nil
	}
	vb.Sel = out
}

// Narrow keeps the surviving rows of column col whose entry passes.
// pass sees each entry at most once where rows share entries (runs, a
// dictionary) and once per surviving row of a flat column.
func (vb *VecBatch) Narrow(col int, pass func(e int) bool) {
	v := &vb.Cols[col]
	out := vb.SelOut()
	if v.Enc == VecRLE && vb.Sel == nil {
		// Whole runs pass or fail: no row needs its entry looked up.
		row := int32(0)
		for k, run := range v.Runs {
			if pass(k) {
				for r := row; r < row+run; r++ {
					out = append(out, r)
				}
			}
			row += run
		}
		vb.SetSel(out)
		return
	}
	var idx []int32
	idx, vb.idx = v.EntryIndex(vb.Sel, vb.idx)
	switch {
	case v.Enc == VecFlat && vb.Sel == nil:
		for i := 0; i < vb.n; i++ {
			if pass(i) {
				out = append(out, int32(i))
			}
		}
	case v.Enc == VecFlat:
		for _, ri := range vb.Sel {
			if pass(int(ri)) {
				out = append(out, ri)
			}
		}
	default:
		// verdict per entry: 0 not asked yet, 1 passes, 2 fails. An
		// all-NULL dictionary is one entry whatever its codes say.
		nullDict := v.Enc == VecDict && v.Class() == ClassNull
		verdict := vb.verdict[:0]
		for range max(v.Entries(), 1) {
			verdict = append(verdict, 0)
		}
		vb.verdict = verdict
		for i, e := range idx {
			if nullDict {
				e = 0
			}
			if verdict[e] == 0 {
				verdict[e] = 2
				if pass(int(e)) {
					verdict[e] = 1
				}
			}
			if verdict[e] == 1 {
				ri := int32(i)
				if vb.Sel != nil {
					ri = vb.Sel[i]
				}
				out = append(out, ri)
			}
		}
	}
	vb.SetSel(out)
}

// RowReader reads the surviving rows of a vec batch one at a time into a
// scratch Row, for whatever still evaluates row by row: a predicate with
// no kernel, a row on its way to a spill file. Only the columns asked
// for are filled; the other cells stay NULL.
type RowReader struct {
	vb   *VecBatch
	cols []int
	idx  [][]int32 // entry index of each column in cols, nil: identity
	bufs [][]int32
	row  Row
}

// Reset points the reader at vb's current selection and the columns it
// is to fill (nil: every column). Columns beyond the batch's width are
// ignored: whatever reads that cell reports it.
func (r *RowReader) Reset(vb *VecBatch, cols []int) {
	r.vb, r.cols = vb, r.cols[:0]
	for _, c := range cols {
		if c < len(vb.Cols) {
			r.cols = append(r.cols, c)
		}
	}
	if cols == nil {
		for c := range vb.Cols {
			r.cols = append(r.cols, c)
		}
	}
	for len(r.bufs) < len(r.cols) {
		r.bufs = append(r.bufs, nil)
		r.idx = append(r.idx, nil)
	}
	for k, c := range r.cols {
		r.idx[k], r.bufs[k] = vb.Cols[c].EntryIndex(vb.Sel, r.bufs[k])
	}
	if cap(r.row) < len(vb.Cols) {
		r.row = make(Row, len(vb.Cols))
	}
	r.row = r.row[:len(vb.Cols)]
	clear(r.row)
}

// Row returns the i'th surviving row. The result is the reader's
// scratch, overwritten by the next call.
func (r *RowReader) Row(i int) Row {
	for k, c := range r.cols {
		e := i
		if r.idx[k] != nil {
			e = int(r.idx[k][i])
		}
		r.row[c] = r.vb.Cols[c].Datum(e)
	}
	return r.row
}

// Materialize writes the surviving rows of the columns cols lists (nil:
// every column) into b as Datums, resetting b first: cell j of a row is
// column cols[j]. It is the hand-off to the operators that consume rows;
// one that keeps a few columns names them and pays for those alone.
func (vb *VecBatch) Materialize(b *Batch, cols []int) {
	width := len(cols)
	if cols == nil {
		width = len(vb.Cols)
	}
	b.Reset(width)
	// Every column writes every surviving row's cell below, so the rows
	// need no initializing.
	b.extendRaw(vb.SelCount())
	if b.n == 0 {
		return
	}
	for j := range width {
		c := j
		if cols != nil {
			c = cols[j]
		}
		v := &vb.Cols[c]
		if v.Enc == VecRLE && vb.Sel == nil {
			// One Datum per run, copied down its rows.
			out, i := b.arena[j:], 0
			for k, run := range v.Runs {
				d := v.Datum(k)
				for end := i + int(run)*b.width; i < end; i += b.width {
					out[i] = d
				}
			}
			continue
		}
		var idx []int32
		idx, vb.idx = v.EntryIndex(vb.Sel, vb.idx)
		v.gather(idx, b.n, b.arena[j:], b.width)
	}
}

// gather writes m entries of v as Datums into out, a view of a batch
// arena that starts at the column's cell of row 0: position i goes to
// out[i*width] and is entry idx[i], or entry i when idx is nil.
func (v *Vector) gather(idx []int32, m int, out []Datum, width int) {
	switch v.Class() {
	case ClassNull:
		for i := 0; i < m; i++ {
			out[i*width] = Datum{}
		}
		return
	case ClassMixed:
		if idx == nil {
			for i, d := range v.Values[:m] {
				out[i*width] = d
			}
			return
		}
		for i, e := range idx {
			out[i*width] = v.Values[e]
		}
		return
	// Each cell is written as a literal, which the compiler builds in
	// place. A Datum has too many fields to live in registers: one kept
	// in a local and copied out per row is a narrow store and a wide load
	// of the same stack slot per row, and costs two to three times as
	// much whenever that slot happens to straddle a cache line.
	case ClassInt:
		k, scale := v.Kind, v.Scale
		if idx == nil {
			for i, x := range v.Ints[:m] {
				out[i*width] = Datum{K: k, Scale: scale, I: x}
			}
		} else {
			for i, e := range idx {
				out[i*width] = Datum{K: k, Scale: scale, I: v.Ints[e]}
			}
		}
	case ClassFloat:
		if idx == nil {
			for i, f := range v.Floats[:m] {
				out[i*width] = Datum{K: KindFloat64, F: f}
			}
		} else {
			for i, e := range idx {
				out[i*width] = Datum{K: KindFloat64, F: v.Floats[e]}
			}
		}
	case ClassStr:
		k := v.Kind
		if idx == nil {
			for i := 0; i < m; i++ {
				out[i*width] = Datum{K: k, S: v.Text(i)}
			}
		} else {
			for i, e := range idx {
				out[i*width] = Datum{K: k, S: v.Text(int(e))}
			}
		}
	}
	if len(v.Nulls) == 0 {
		return
	}
	for i := 0; i < m; i++ {
		e := i
		if idx != nil {
			e = int(idx[i])
		}
		if v.Nulls.At(e) {
			out[i*width] = Datum{}
		}
	}
}

// vecBatchPool recycles vec batches across scan pipeline stages.
var vecBatchPool = sync.Pool{New: func() any { return new(VecBatch) }}

// vecGets and vecPuts count vec-batch pool traffic; their difference is
// the number of vec batches currently checked out (leaked ones show
// up as a non-zero residue, exactly like types.batch_in_use).
var vecGets, vecPuts atomic.Int64

// VecPoolStats reports cumulative GetVecBatch and PutVecBatch counts.
func VecPoolStats() (gets, puts int64) {
	return vecGets.Load(), vecPuts.Load()
}

// VecPoolInUse returns the number of vec batches currently checked
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

// GetVecBatch returns a pooled vec batch reset to ncols columns.
func GetVecBatch(ncols int) *VecBatch {
	vecGets.Add(1)
	vb := vecBatchPool.Get().(*VecBatch)
	vb.pooled = false
	vb.Reset(ncols)
	return vb
}

// PutVecBatch returns a vec batch to the pool. The caller must not
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
