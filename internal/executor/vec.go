package executor

import (
	"hawq/internal/types"
)

// VecSource is implemented by operators that can hand their output on
// as vector batches instead of rows: the scan operator natively, and its
// stats decorator by delegation. A consumer that can absorb vectors (the
// hash aggregate) asks its input for the interface and pulls through it.
type VecSource interface {
	// NextVecBatch returns the next vector batch with the scan's whole
	// filter already applied to its selection, or nil at end of stream.
	// Ownership transfers to the caller, which must release the batch
	// with types.PutVecBatch.
	NextVecBatch() (*types.VecBatch, error)
}
