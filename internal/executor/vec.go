package executor

import (
	"fmt"

	"hawq/internal/types"
)

// VecSource is implemented by operators that can emit still-encoded
// vector batches (compressed execution): the scan operator natively,
// and the stats decorator by delegation. A consumer that can absorb
// encoded vectors (the hash aggregate) calls EnableVec before Open; if
// it returns true the consumer must drive the operator exclusively
// through NextVecBatch until end of stream.
type VecSource interface {
	// EnableVec switches the operator into encoded-vector delivery for
	// this execution. It reports false when the vector path is
	// unavailable (a filter the vector kernels cannot fully consume), in
	// which case the consumer falls back to NextBatch. Must be called
	// before Open.
	EnableVec() bool
	// NextVecBatch returns the next vector batch with the scan's filter
	// already applied to its selection, or nil at end of stream.
	// Ownership transfers to the caller, which must release the batch
	// with types.PutVecBatch.
	NextVecBatch() (*types.VecBatch, error)
}

// vecIter reads one encoded column at ascending row indexes without
// materializing it: flat and dictionary pages are random access, while
// run-length and raw pages keep a cursor that advances monotonically.
// Callers must request each row index at most once, in increasing
// order, per reset.
type vecIter struct {
	v *types.Vector
	// RLE cursor.
	k      int
	runEnd int32
	// raw-stream cursor.
	pos  int
	next int32
}

// reset points the iterator at a new vector.
func (it *vecIter) reset(v *types.Vector) {
	it.v = v
	it.k = 0
	it.runEnd = 0
	if v.Enc == types.VecRLE && len(v.Runs) > 0 {
		it.runEnd = v.Runs[0]
	}
	it.pos = 0
	it.next = 0
}

// at returns the datum at row ri. ri must not decrease between calls.
func (it *vecIter) at(ri int32) (types.Datum, error) {
	v := it.v
	switch v.Enc {
	case types.VecFlat:
		return v.Values[ri], nil
	case types.VecDict:
		return v.Values[v.Codes[ri]], nil
	case types.VecRLE:
		for it.k < len(v.Runs) && ri >= it.runEnd {
			it.k++
			if it.k < len(v.Runs) {
				it.runEnd += v.Runs[it.k]
			}
		}
		if it.k >= len(v.Runs) {
			return types.Null, fmt.Errorf("executor: row %d beyond RLE runs (%d rows)", ri, v.N)
		}
		return v.Values[it.k], nil
	case types.VecRaw:
		for it.next < ri {
			sz, err := types.SkipDatum(v.Raw[it.pos:])
			if err != nil {
				return types.Null, err
			}
			it.pos += sz
			it.next++
		}
		d, sz, err := types.DecodeDatum(v.Raw[it.pos:])
		if err != nil {
			return types.Null, err
		}
		it.pos += sz
		it.next++
		return d, nil
	default:
		return types.Null, fmt.Errorf("executor: read through bad vector encoding %d", v.Enc)
	}
}
