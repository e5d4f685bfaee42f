package obs

import "time"

// OpStats is one operator's runtime statistics for one slice on one
// segment. Executor decorators fill it single-threaded (each operator
// belongs to exactly one slice goroutine), so the fields are plain
// int64s; after the slice finishes the struct is published by value.
type OpStats struct {
	// Slice and Node identify the operator: Node is the preorder index
	// of the plan node within its slice's tree, identical on the QD
	// and on every QE (and across the plan's wire form).
	Slice int
	Node  int
	// Label is the plan node's display label ("Table Scan (t)", ...).
	Label string
	// Segment is the executing segment (plan.QDSegment for the QD).
	Segment int
	// Rows and Batches count what the operator emitted downstream.
	Rows    int64
	Batches int64
	// Bytes is the operator's interconnect traffic: encoded payload
	// bytes sent (motion send) or received (motion recv).
	Bytes int64
	// SpillBytes and SpillFiles count workfile traffic the operator
	// wrote while spilling (re-spills at deeper recursion levels count
	// again — this is traffic, not live footprint).
	SpillBytes int64
	SpillFiles int64
	// PeakMem is the operator's high-water memory reservation in bytes.
	PeakMem int64
	// PagesSkipped counts storage pages a scan pruned via zone maps
	// before decompression (scan operators only).
	PagesSkipped int64
	// CacheHits and CacheMisses count the (block, column) vectors a scan
	// took from its segment's block cache and those it had to read and
	// decode (scan operators only).
	CacheHits   int64
	CacheMisses int64
	// Wall is cumulative wall time spent inside the operator and its
	// children (inclusive, Postgres-style), measured on the injected
	// clock.Clock — zero under clock.Sim unless the test advances time.
	Wall time.Duration
}

// SliceStats is the per-slice statistics bundle a QE ships back to the
// QD on query completion, piggybacked on the dispatch result exactly
// like SegFileUpdate metadata.
type SliceStats struct {
	// Slice and Segment identify the executing (slice, segment) pair.
	Slice   int
	Segment int
	// Ops holds one entry per plan node in the slice, in preorder.
	Ops []OpStats
}
