// Package fixtypes is the fixture stand-in for the real module's pooled
// batch arena (internal/types): just enough surface — Batch, Row,
// GetBatch, PutBatch, Row views and Clone — for the batchlife analyzer
// to track lifetimes against. Tests point Checker.BatchPkg here.
package fixtypes

// Row is a view into a batch's arena, valid until the batch is
// released.
type Row []int64

// Clone copies the row out of the arena.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Batch is a pooled column batch.
type Batch struct {
	rows []Row
}

// Len returns the number of rows.
func (b *Batch) Len() int { return len(b.rows) }

// Row returns the i-th arena row view.
func (b *Batch) Row(i int) Row { return b.rows[i] }

// AddRow appends and returns a fresh arena row view.
func (b *Batch) AddRow() Row {
	b.rows = append(b.rows, make(Row, 4))
	return b.rows[len(b.rows)-1]
}

// GetBatch takes a batch from the pool.
func GetBatch(n int) *Batch { return &Batch{rows: make([]Row, 0, n)} }

// PutBatch returns a batch to the pool; the caller must not touch it
// (or any arena row view into it) afterwards.
func PutBatch(b *Batch) { b.rows = b.rows[:0] }

// Vector is one column of an encoded batch. A Shared vector's slices
// belong to a cache: the pool drops them on reuse instead of refilling
// them.
type Vector struct {
	N      int
	Values []int64
	Shared bool
}

// VecBatch is the pooled encoded-column batch, released through
// PutVecBatch with the same single-owner discipline as Batch.
type VecBatch struct {
	Cols []Vector
	sel  []int32
}

// SelCount returns the number of selected rows.
func (vb *VecBatch) SelCount() int { return len(vb.sel) }

// GetVecBatch takes an encoded batch from the pool.
func GetVecBatch(n int) *VecBatch {
	return &VecBatch{Cols: make([]Vector, n), sel: make([]int32, 0, n)}
}

// PutVecBatch returns an encoded batch to the pool; the caller must
// not touch it afterwards.
func PutVecBatch(vb *VecBatch) {
	vb.sel = vb.sel[:0]
	for i := range vb.Cols {
		if v := &vb.Cols[i]; v.Shared {
			*v = Vector{}
		} else {
			v.N, v.Values = 0, v.Values[:0]
		}
	}
}
