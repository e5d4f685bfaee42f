// Package batchlifebad is a hawq-check fixture: the three pooled-batch
// lifetime bugs (use-after-put, double put, escaping arena views) next
// to the ownership patterns that must pass.
package batchlifebad

import "fixmod/internal/fixtypes"

// UseAfterPut reads a batch after returning it to the pool.
func UseAfterPut() int {
	b := fixtypes.GetBatch(4)
	fixtypes.PutBatch(b)
	return b.Len()
}

// DoublePut releases the same batch twice.
func DoublePut() {
	b := fixtypes.GetBatch(4)
	fixtypes.PutBatch(b)
	fixtypes.PutBatch(b)
}

// PutWithDeferPending releases explicitly while a deferred put is
// already registered.
func PutWithDeferPending() {
	b := fixtypes.GetBatch(4)
	defer fixtypes.PutBatch(b)
	fixtypes.PutBatch(b)
}

// EscapingRow returns an arena view that dies with the deferred put.
func EscapingRow() fixtypes.Row {
	b := fixtypes.GetBatch(4)
	defer fixtypes.PutBatch(b)
	r := b.AddRow()
	return r
}

// RowAfterPut touches an arena view after its batch was released.
func RowAfterPut() int64 {
	b := fixtypes.GetBatch(4)
	r := b.AddRow()
	fixtypes.PutBatch(b)
	return r[0]
}

// SuppressedUse is a use-after-put with an audited justification.
func SuppressedUse() int {
	b := fixtypes.GetBatch(4)
	fixtypes.PutBatch(b)
	//hawqcheck:ignore batchlife fixture: pretend the pool is single-owner here
	return b.Len()
}

// CleanReassign releases, then takes a fresh batch into the same
// variable; the reassignment restores liveness.
func CleanReassign() int {
	b := fixtypes.GetBatch(4)
	fixtypes.PutBatch(b)
	b = fixtypes.GetBatch(4)
	return b.Len()
}

// CleanClone copies the row out of the arena before the deferred put.
func CleanClone() fixtypes.Row {
	b := fixtypes.GetBatch(4)
	defer fixtypes.PutBatch(b)
	r := b.AddRow().Clone()
	return r
}

// CleanConditionalPut releases on the error branch only; the
// fall-through still owns the batch.
func CleanConditionalPut(fail bool) *fixtypes.Batch {
	b := fixtypes.GetBatch(4)
	if fail {
		fixtypes.PutBatch(b)
		return nil
	}
	return b
}

// VecUseAfterPut reads an encoded batch after returning it to the
// pool; VecBatch lifetimes follow the same discipline as Batch.
func VecUseAfterPut() int {
	vb := fixtypes.GetVecBatch(4)
	fixtypes.PutVecBatch(vb)
	return vb.SelCount()
}

// VecDoublePut releases the same encoded batch twice.
func VecDoublePut() {
	vb := fixtypes.GetVecBatch(4)
	fixtypes.PutVecBatch(vb)
	fixtypes.PutVecBatch(vb)
}

// CleanVecHandoff transfers encoded-batch ownership without releasing;
// the callee now owns the put obligation.
func CleanVecHandoff(sink func(*fixtypes.VecBatch)) {
	vb := fixtypes.GetVecBatch(4)
	sink(vb)
}

// CleanVecReassign releases, then takes a fresh encoded batch into the
// same variable; the reassignment restores liveness.
func CleanVecReassign() int {
	vb := fixtypes.GetVecBatch(4)
	fixtypes.PutVecBatch(vb)
	vb = fixtypes.GetVecBatch(4)
	return vb.SelCount()
}

// VecColumnAfterPut keeps a column vector past its batch's release: by
// then the pool's next user owns the slot, and what it finds there is
// either its own refill or — when the cache shared the vector — nothing.
func VecColumnAfterPut() int {
	vb := fixtypes.GetVecBatch(4)
	v := &vb.Cols[0]
	fixtypes.PutVecBatch(vb)
	return v.N
}

// VecSharedColumnAfterPut copies a shared vector out by value; the
// copy still aliases the cache's slices but no longer says so.
func VecSharedColumnAfterPut(cached fixtypes.Vector) int64 {
	vb := fixtypes.GetVecBatch(1)
	vb.Cols[0] = cached
	col := vb.Cols[0]
	fixtypes.PutVecBatch(vb)
	return col.Values[0]
}

// CleanSharedVector reads a cache-shared vector while it owns the batch
// and releases it; the pool drops the shared slices, the cache keeps
// them.
func CleanSharedVector(cached fixtypes.Vector) int64 {
	vb := fixtypes.GetVecBatch(1)
	vb.Cols[0] = cached
	v := &vb.Cols[0]
	first := v.Values[0]
	fixtypes.PutVecBatch(vb)
	return first
}

// VecTypedSliceAfterPut reads a column's typed storage out and keeps it
// past the release: a bare slice, with nothing left to say the pool's
// next user is about to build into it.
func VecTypedSliceAfterPut() int64 {
	vb := fixtypes.GetVecBatch(1)
	vals := vb.Cols[0].Values
	fixtypes.PutVecBatch(vb)
	return vals[0]
}

// CleanTypedSlice sums a column's typed storage while it owns the batch.
func CleanTypedSlice() int64 {
	vb := fixtypes.GetVecBatch(1)
	vals := vb.Cols[0].Values
	var sum int64
	for _, x := range vals {
		sum += x
	}
	fixtypes.PutVecBatch(vb)
	return sum
}
