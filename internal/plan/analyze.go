package plan

import (
	"fmt"
	"strings"
	"time"

	"hawq/internal/obs"
)

// NodeStats is one plan node's runtime statistics merged across every
// segment that executed its slice: counters are summed, peak memory and
// wall time take the per-segment maximum (the slice finishes when its
// slowest gang member does).
type NodeStats struct {
	// Slice and Node locate the plan node (Node is the preorder index
	// within the slice tree, matching obs.OpStats numbering).
	Slice int
	Node  int
	// Label and Depth mirror the node's Explain rendering.
	Label string
	Depth int
	// Segments counts gang members that reported stats for this node.
	Segments int
	// Rows, Batches, Bytes, SpillBytes, and SpillFiles are summed over
	// the gang; Bytes is interconnect payload traffic (motions only).
	Rows       int64
	Batches    int64
	Bytes      int64
	SpillBytes int64
	SpillFiles int64
	// PagesSkipped is summed over the gang: storage pages pruned via
	// zone maps (scans only).
	PagesSkipped int64
	// CacheHits and CacheMisses are summed over the gang: block-cache
	// lookups of (block, column) vectors by scans.
	CacheHits   int64
	CacheMisses int64
	// PeakMem is the largest single-segment memory high-water mark.
	PeakMem int64
	// MaxWall is the slowest gang member's cumulative operator time.
	MaxWall time.Duration
}

// MergeStats folds the per-(slice, segment) statistics shipped back by
// the gang into one NodeStats list per slice, in preorder — the
// structure EXPLAIN ANALYZE renders and tests assert against. Slices
// and nodes come from the plan itself, so operators that reported
// nothing (never opened) still appear, with zero counts.
func (p *Plan) MergeStats(stats []obs.SliceStats) [][]NodeStats {
	out := make([][]NodeStats, len(p.Slices))
	for si, s := range p.Slices {
		var nodes []NodeStats
		var number func(n Node, depth int)
		number = func(n Node, depth int) {
			nodes = append(nodes, NodeStats{
				Slice: si, Node: len(nodes), Label: n.Label(), Depth: depth,
			})
			for _, c := range n.Children() {
				number(c, depth+1)
			}
		}
		number(s.Root, 0)
		out[si] = nodes
	}
	for _, ss := range stats {
		if ss.Slice < 0 || ss.Slice >= len(out) {
			continue
		}
		nodes := out[ss.Slice]
		for _, op := range ss.Ops {
			if op.Node < 0 || op.Node >= len(nodes) {
				continue
			}
			n := &nodes[op.Node]
			n.Segments++
			n.Rows += op.Rows
			n.Batches += op.Batches
			n.Bytes += op.Bytes
			n.SpillBytes += op.SpillBytes
			n.SpillFiles += op.SpillFiles
			n.PagesSkipped += op.PagesSkipped
			n.CacheHits += op.CacheHits
			n.CacheMisses += op.CacheMisses
			if op.PeakMem > n.PeakMem {
				n.PeakMem = op.PeakMem
			}
			if op.Wall > n.MaxWall {
				n.MaxWall = op.Wall
			}
		}
	}
	return out
}

// ExplainAnalyze renders the executed plan with its merged runtime
// statistics: the Explain tree, one "(rows=... time=...)" annotation
// per operator, motion traffic and spill detail where present, and a
// trailing execution summary. Output is deterministic given identical
// stats — slices in order, nodes in preorder, durations from the
// injected clock (all zero under clock.Sim).
func (p *Plan) ExplainAnalyze(stats []obs.SliceStats, resultRows int, elapsed time.Duration) string {
	merged := p.MergeStats(stats)
	var b strings.Builder
	for si, s := range p.Slices {
		where := "QD"
		if !s.OnQD() {
			if len(s.Segments) == p.NumSegments {
				where = fmt.Sprintf("%d segments", len(s.Segments))
			} else {
				where = fmt.Sprintf("segments %v", s.Segments)
			}
		}
		fmt.Fprintf(&b, "Slice %d (%s):\n", s.ID, where)
		if p.MemGrant > 0 || p.WorkMem > 0 {
			fmt.Fprintf(&b, "  Memory: grant=%d work_mem=%d\n", p.MemGrant, p.WorkMem)
		}
		for _, n := range merged[si] {
			fmt.Fprintf(&b, "%s-> %s (rows=%d batches=%d", strings.Repeat("  ", n.Depth+1), n.Label, n.Rows, n.Batches)
			if n.CacheHits+n.CacheMisses > 0 {
				fmt.Fprintf(&b, " cache=%d/%d", n.CacheHits, n.CacheMisses)
			}
			if n.Bytes > 0 {
				fmt.Fprintf(&b, " bytes=%d", n.Bytes)
			}
			if n.SpillBytes > 0 || n.SpillFiles > 0 {
				fmt.Fprintf(&b, " spill_bytes=%d spill_files=%d", n.SpillBytes, n.SpillFiles)
			}
			if n.PagesSkipped > 0 {
				fmt.Fprintf(&b, " pages_skipped=%d", n.PagesSkipped)
			}
			if n.PeakMem > 0 {
				fmt.Fprintf(&b, " peak_mem=%d", n.PeakMem)
			}
			fmt.Fprintf(&b, " time=%s)\n", n.MaxWall)
		}
	}
	fmt.Fprintf(&b, "Execution: result rows=%d time=%s\n", resultRows, elapsed)
	return b.String()
}
