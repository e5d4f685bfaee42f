package plan

import (
	"fmt"
	"strings"

	"hawq/internal/types"
)

// QDSegment is the pseudo-segment ID for the query dispatcher.
const QDSegment = -1

// Slice is one execution unit of a plan: a subtree that does not cross a
// motion boundary (§2.4). Every slice except the top one has a Motion as
// its root (the send half); the parent slice reads it through a
// MotionRecv.
type Slice struct {
	ID int
	// Root is the slice's operator tree.
	Root Node
	// Segments lists where the slice's gang runs: QDSegment for the
	// 1-gang on the master, or segment IDs for N-gangs. Direct dispatch
	// (§3) shrinks this to a single segment. It is the one record of the
	// gang: the executor reads a motion's senders here (the gang of the
	// slice the motion roots) and its receivers in the parent's entry.
	Segments []int
	// Parent is the index of the slice that reads this slice's motion
	// (the top slice has none).
	Parent int
	// DeferredKeys, when set, is a direct-dispatch decision the planner
	// could not make because a distribution key is pinned by a $n
	// placeholder (generic plans): Segments stays the full gang until
	// BindParams hashes the bound values and pins the slice to the one
	// segment holding them, so a cached plan keeps §3's single-segment
	// point lookup.
	DeferredKeys []DirectKey
}

// OnQD reports whether the slice runs on the master.
func (s *Slice) OnQD() bool {
	return len(s.Segments) == 1 && s.Segments[0] == QDSegment
}

// Plan is a sliced, self-described physical plan ready for dispatch.
type Plan struct {
	// Slices[0] is the top slice (runs on the QD and produces the
	// statement result).
	Slices []*Slice
	// Schema describes the result rows.
	Schema *types.Schema
	// NumSegments is the cluster size the plan was built for.
	NumSegments int
	// SegFileUpdatesExpected marks DML plans whose QEs piggyback catalog
	// changes back to the master (§3.1).
	SegFileUpdatesExpected bool
	// MemGrant is the query's per-node memory grant in bytes, split off
	// the session's resource queue memory_limit by the dispatcher (0 =
	// unlimited). Like the rest of the plan it travels self-described, so
	// stateless QEs enforce it without consulting the master.
	MemGrant int64
	// WorkMem is the per-operator spill threshold in bytes (the work_mem
	// session setting; 0 disables budget-triggered spilling).
	WorkMem int64
	// CollectStats asks every slice to record per-operator runtime
	// statistics (rows, bytes, spill, peak memory, wall time) and ship
	// them back to the QD on completion. Set by EXPLAIN ANALYZE and by
	// sessions with a slow-query-log threshold. Travels self-described
	// with the rest of the plan, so stateless QEs need no extra
	// coordination to know stats are wanted.
	CollectStats bool
	// ParamKinds records, for generic (parameterized) plans, the kind each
	// $n placeholder was inferred to have, indexed by parameter position.
	// EXECUTE casts argument values to these kinds before BindParams.
	// Empty for plans without placeholders.
	ParamKinds []types.Kind
	// Args are one execution's placeholder values, cast to ParamKinds
	// (BindParams). Like the rest of the header they travel with the plan;
	// the nodes keep their $n, and an operator binds the values in as it
	// is built.
	Args []types.Datum
}

// DirectKey is one distribution-key value source: Param >= 0 names a
// $n placeholder (0-based), otherwise Const holds the plan-time value.
type DirectKey struct {
	Param int
	Const types.Datum
}

// KeySegment returns the one of n segments that holds the rows whose
// distribution key is keys, each a constant or a parameter bound in cast:
// the key's hash folded as types.HashKeys folds a row's, reduced as the
// insert path and the redistribute motion reduce it.
func KeySegment(keys []DirectKey, cast []types.Datum, n int) (int, error) {
	var key uint64
	for _, k := range keys {
		v := k.Const
		if k.Param >= 0 {
			if k.Param >= len(cast) {
				return 0, fmt.Errorf("plan: direct dispatch references parameter $%d, got %d", k.Param+1, len(cast))
			}
			v = cast[k.Param]
		}
		key = types.FoldKey(key, types.KeyWord(&v))
	}
	return types.SegmentOf(key, n), nil
}

// SenderHint lets the planner pin a motion's child slice to a subset of
// segments (direct dispatch). It is attached by wrapping the motion
// input; nil hints mean "all segments". DeferredKeys, when set, defers
// the choice to BindParams: Segments stays the full gang at plan time
// and the bound parameter values pick the one target segment.
type SenderHint struct {
	Input        Node
	Segments     []int
	DeferredKeys []DirectKey
}

// OutSchema implements Node.
func (h *SenderHint) OutSchema() *types.Schema { return h.Input.OutSchema() }

// Children implements Node.
func (h *SenderHint) Children() []Node { return []Node{h.Input} }

// Label implements Node.
func (h *SenderHint) Label() string {
	if len(h.DeferredKeys) > 0 {
		return "Direct Dispatch (bound at execute)"
	}
	return fmt.Sprintf("Direct Dispatch %v", h.Segments)
}

// Build slices a plan tree at its motion boundaries. root is the full
// tree (with Motion nodes); topSegments is where the top slice runs
// (usually just the QD). allSegments is the default gang for sliced
// subtrees.
func Build(root Node, topSegments, allSegments []int, numSegments int) *Plan {
	p := &Plan{Schema: root.OutSchema(), NumSegments: numSegments}
	b := &builder{plan: p, all: allSegments}
	top := &Slice{ID: 0, Segments: topSegments}
	p.Slices = append(p.Slices, top)
	top.Root = b.walk(root, top)
	return p
}

type builder struct {
	plan *Plan
	all  []int
}

// walk rewrites the tree: each Motion becomes a new slice whose root is
// the motion itself, and the parent keeps a MotionRecv.
func (b *builder) walk(n Node, parent *Slice) Node {
	switch v := n.(type) {
	case *Motion:
		segs := b.all
		child := v.Input
		var deferred []DirectKey
		if hint, ok := child.(*SenderHint); ok {
			segs = hint.Segments
			deferred = hint.DeferredKeys
			child = hint.Input
			v.Input = child
		}
		s := &Slice{ID: len(b.plan.Slices), Segments: segs, Parent: parent.ID, DeferredKeys: deferred}
		b.plan.Slices = append(b.plan.Slices, s)
		// The slice index is the motion's unique ID within the query.
		v.ID = int16(s.ID)
		v.Input = b.walk(child, s)
		s.Root = v
		return &MotionRecv{ID: v.ID, Schema: v.OutSchema()}
	case *Select:
		v.Input = b.walk(v.Input, parent)
		return v
	case *Project:
		v.Input = b.walk(v.Input, parent)
		return v
	case *HashJoin:
		v.Left = b.walk(v.Left, parent)
		v.Right = b.walk(v.Right, parent)
		return v
	case *NestLoopJoin:
		v.Left = b.walk(v.Left, parent)
		v.Right = b.walk(v.Right, parent)
		return v
	case *HashAgg:
		v.Input = b.walk(v.Input, parent)
		return v
	case *Sort:
		v.Input = b.walk(v.Input, parent)
		return v
	case *Limit:
		v.Input = b.walk(v.Input, parent)
		return v
	case *Insert:
		v.Input = b.walk(v.Input, parent)
		return v
	default:
		return n
	}
}

// Explain renders the sliced plan in the style of EXPLAIN output.
func (p *Plan) Explain() string {
	var b strings.Builder
	for _, s := range p.Slices {
		where := "QD"
		if !s.OnQD() {
			if len(s.Segments) == p.NumSegments {
				where = fmt.Sprintf("%d segments", len(s.Segments))
			} else {
				where = fmt.Sprintf("segments %v", s.Segments)
			}
		}
		fmt.Fprintf(&b, "Slice %d (%s):\n", s.ID, where)
		// Memory budgets are part of the plan (PR 4); show them so a
		// query's spill behavior is predictable before it runs.
		if p.MemGrant > 0 || p.WorkMem > 0 {
			fmt.Fprintf(&b, "  Memory: grant=%d work_mem=%d\n", p.MemGrant, p.WorkMem)
		}
		explainNode(&b, s.Root, 1)
	}
	return b.String()
}

func explainNode(b *strings.Builder, n Node, depth int) {
	fmt.Fprintf(b, "%s-> %s\n", strings.Repeat("  ", depth), n.Label())
	for _, c := range n.Children() {
		explainNode(b, c, depth+1)
	}
}

// Walk visits every node of every slice.
func (p *Plan) Walk(fn func(Node)) {
	for _, s := range p.Slices {
		walkNode(s.Root, fn)
	}
}

func walkNode(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children() {
		walkNode(c, fn)
	}
}
