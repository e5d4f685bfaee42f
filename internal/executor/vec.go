package executor

import (
	"hawq/internal/types"
)

// VecSource is implemented by operators that can emit vector batches
// instead of rows: the scan operator natively, and the stats decorator
// by delegation. A consumer that can absorb vectors (the hash aggregate)
// calls EnableVec before Open; if it returns true the consumer must
// drive the operator exclusively through NextVecBatch until end of
// stream.
type VecSource interface {
	// EnableVec switches the operator into vector delivery for this
	// execution. It reports false when the operator cannot oblige (it is
	// already open, or decorates one that is no vector source), in which
	// case the consumer falls back to NextBatch. Must be called before
	// Open.
	EnableVec() bool
	// NextVecBatch returns the next vector batch with the scan's whole
	// filter already applied to its selection, or nil at end of stream.
	// Ownership transfers to the caller, which must release the batch
	// with types.PutVecBatch.
	NextVecBatch() (*types.VecBatch, error)
}
