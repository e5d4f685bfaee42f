// Package plan defines the physical query plan: the tree of relational
// operators plus the parallel motion operators of §3, the slicing of a
// plan at motion boundaries (§2.4), and the self-described plan
// serialization used for metadata dispatch (§3.1) — plans carry every
// piece of catalog metadata their execution needs, so stateless segments
// never consult the master's catalog.
package plan

import (
	"fmt"
	"strings"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/types"
)

// Node is a physical plan operator.
type Node interface {
	// OutSchema is the schema of rows the operator produces.
	OutSchema() *types.Schema
	// Children returns input operators.
	Children() []Node
	// Label renders the operator for EXPLAIN.
	Label() string
}

// MotionType enumerates the three parallel motion operators of §3.
type MotionType uint8

// Motion types.
const (
	// GatherMotion sends every input tuple to a single receiver
	// (usually the QD).
	GatherMotion MotionType = iota
	// BroadcastMotion replicates every input tuple to all segments.
	BroadcastMotion
	// RedistributeMotion hashes tuples to segments on a set of columns.
	RedistributeMotion
)

var motionNames = [...]string{"Gather Motion", "Broadcast Motion", "Redistribute Motion"}

// String returns the display name used in EXPLAIN output.
func (m MotionType) String() string { return motionNames[m] }

// JoinKind covers the join semantics the executor implements.
type JoinKind uint8

// Join kinds.
const (
	InnerJoin JoinKind = iota
	LeftJoin
	SemiJoin // EXISTS / IN
	AntiJoin // NOT EXISTS / NOT IN
)

var joinKindNames = [...]string{"Inner", "Left", "Semi", "Anti"}

// String returns the display name used in EXPLAIN output.
func (k JoinKind) String() string { return joinKindNames[k] }

// AggPhase distinguishes the two-phase aggregation stages.
type AggPhase uint8

// Aggregation phases.
const (
	// AggSingle computes final results in one pass.
	AggSingle AggPhase = iota
	// AggPartial computes per-segment partial states.
	AggPartial
	// AggFinal merges partial states after a motion.
	AggFinal
)

// Scan reads the committed rows of one table. The node is
// self-described: it embeds the table descriptor and the visible segment
// files of every segment, so a QE needs no catalog access. Each QE scans
// only the files whose SegmentID matches its own. A partitioned table is
// scanned as its parent: SegFiles holds the files of every partition
// that survived elimination (§2.3), which share the parent's schema and
// storage.
type Scan struct {
	Table *catalog.TableDesc
	// Proj are the table column indexes produced, in output order: the
	// columns the query references, chosen by the planner, and nothing
	// else. Empty (or nil — the wire form does not tell them apart)
	// means no columns: a COUNT(*) scan emits zero-width rows. Every
	// other index in a plan (Filter's ColRefs, join keys and motion hash
	// columns above) is an output position — a position in Proj — never
	// a table column index.
	Proj []int
	// Filter is evaluated over the projected row; nil means no filter.
	Filter expr.Expr
	// SegFiles lists every visible file of the table (all segments).
	SegFiles []catalog.SegFile
	Schema   *types.Schema
	// Parts is how many partitions of a partitioned table SegFiles
	// covers.
	Parts int
}

// OutSchema implements Node.
func (s *Scan) OutSchema() *types.Schema { return s.Schema }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Label implements Node.
func (s *Scan) Label() string {
	l := fmt.Sprintf("Table Scan (%s) cols=%d/%d", s.Table.Name, len(s.Proj), s.Table.Schema.Len())
	if s.Table.IsPartitionParent() {
		l += fmt.Sprintf(" parts=%d", s.Parts)
	}
	if s.Filter != nil {
		l += fmt.Sprintf(" filter: %s", s.Filter)
	}
	return l
}

// ExternalScan reads an external table through PXF (§6). Fragments are
// assigned to QEs by the executor's PXF binding with locality awareness.
// The binding hands the connector Filter's comparisons of a column with a
// constant (§6.3's filter pushdown); they are advisory — Filter is still
// applied, so connectors may ignore them.
type ExternalScan struct {
	Table  *catalog.TableDesc
	Proj   []int
	Filter expr.Expr
	Schema *types.Schema
	// NumSegments is the gang size fragments are distributed over.
	NumSegments int
}

// OutSchema implements Node.
func (s *ExternalScan) OutSchema() *types.Schema { return s.Schema }

// Children implements Node.
func (s *ExternalScan) Children() []Node { return nil }

// Label implements Node.
func (s *ExternalScan) Label() string {
	return fmt.Sprintf("External Scan (%s via %s)", s.Table.Name, s.Table.Location)
}

// Select filters rows by a predicate.
type Select struct {
	Input Node
	Pred  expr.Expr
}

// OutSchema implements Node.
func (s *Select) OutSchema() *types.Schema { return s.Input.OutSchema() }

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Input} }

// Label implements Node.
func (s *Select) Label() string { return fmt.Sprintf("Filter (%s)", s.Pred) }

// Project computes expressions over input rows.
type Project struct {
	Input  Node
	Exprs  []expr.Expr
	Schema *types.Schema
}

// OutSchema implements Node.
func (p *Project) OutSchema() *types.Schema { return p.Schema }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// Label implements Node.
func (p *Project) Label() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project (" + strings.Join(parts, ", ") + ")"
}

// HashJoin joins two inputs on equality keys, building a hash table on
// the right (build) side. ExtraPred, if set, is evaluated over the
// concatenated row for residual non-equi conditions.
type HashJoin struct {
	Kind        JoinKind
	Left, Right Node
	// LeftKeys/RightKeys are column indexes into each input's schema.
	LeftKeys, RightKeys []int
	ExtraPred           expr.Expr
	Schema              *types.Schema
}

// OutSchema implements Node.
func (j *HashJoin) OutSchema() *types.Schema { return j.Schema }

// Children implements Node.
func (j *HashJoin) Children() []Node { return []Node{j.Left, j.Right} }

// Label implements Node.
func (j *HashJoin) Label() string {
	return fmt.Sprintf("Hash Join (%s) on %v=%v", j.Kind, j.LeftKeys, j.RightKeys)
}

// NestLoopJoin joins with an arbitrary predicate (non-equi joins, often
// paired with a broadcast motion, §3).
type NestLoopJoin struct {
	Kind        JoinKind
	Left, Right Node
	Pred        expr.Expr
	Schema      *types.Schema
}

// OutSchema implements Node.
func (j *NestLoopJoin) OutSchema() *types.Schema { return j.Schema }

// Children implements Node.
func (j *NestLoopJoin) Children() []Node { return []Node{j.Left, j.Right} }

// Label implements Node.
func (j *NestLoopJoin) Label() string { return fmt.Sprintf("Nested Loop (%s)", j.Kind) }

// HashAgg groups and aggregates. For AggPartial/AggFinal pairs the
// planner lowers AVG into SUM+COUNT and rewrites the final phase's
// aggregate arguments to reference the partial columns.
type HashAgg struct {
	Input  Node
	Phase  AggPhase
	Groups []expr.Expr
	Aggs   []expr.AggSpec
	Schema *types.Schema
}

// OutSchema implements Node.
func (a *HashAgg) OutSchema() *types.Schema { return a.Schema }

// Children implements Node.
func (a *HashAgg) Children() []Node { return []Node{a.Input} }

// Label implements Node.
func (a *HashAgg) Label() string {
	phase := ""
	switch a.Phase {
	case AggPartial:
		phase = " (partial)"
	case AggFinal:
		phase = " (final)"
	}
	parts := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		parts[i] = s.String()
	}
	return fmt.Sprintf("HashAggregate%s [%s]", phase, strings.Join(parts, ", "))
}

// OrderKey is one sort key.
type OrderKey struct {
	Col  int
	Desc bool
}

// Sort orders its input; large inputs spill to segment-local disk (§2.6).
type Sort struct {
	Input Node
	Keys  []OrderKey
}

// OutSchema implements Node.
func (s *Sort) OutSchema() *types.Schema { return s.Input.OutSchema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Input} }

// Label implements Node.
func (s *Sort) Label() string { return fmt.Sprintf("Sort %v", s.Keys) }

// Limit returns at most N rows after skipping Offset. The executor
// propagates satisfaction upstream with the interconnect STOP message.
type Limit struct {
	Input  Node
	N      int64
	Offset int64
}

// OutSchema implements Node.
func (l *Limit) OutSchema() *types.Schema { return l.Input.OutSchema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Input} }

// Label implements Node.
func (l *Limit) Label() string { return fmt.Sprintf("Limit %d", l.N) }

// Values produces literal rows (INSERT ... VALUES, SELECT without FROM).
type Values struct {
	Rows   []types.Row
	Schema *types.Schema
}

// OutSchema implements Node.
func (v *Values) OutSchema() *types.Schema { return v.Schema }

// Children implements Node.
func (v *Values) Children() []Node { return nil }

// Label implements Node.
func (v *Values) Label() string { return fmt.Sprintf("Values (%d rows)", len(v.Rows)) }

// InsertTarget is one table an Insert may write: the table itself, or
// one partition of a partitioned parent.
type InsertTarget struct {
	Table *catalog.TableDesc
	// Files maps segment ID -> the lane file to append to (carrying the
	// pre-insert logical lengths, which the master needs for rollback
	// truncation).
	Files map[int]catalog.SegFile
}

// Insert appends input rows to the target table's lane on the executing
// segment and emits one row with the insert count. The SegNo lane and the
// per-segment file paths were assigned by the master (swimming lanes,
// §5.4); the piggybacked metadata changes flow back with the results.
// Multiple targets mean a partitioned parent: each row is routed to the
// partition whose bounds contain its partition-column value.
type Insert struct {
	Targets []InsertTarget
	Input   Node
	// SegNo is the lane this transaction writes.
	SegNo  int
	Schema *types.Schema
}

// OutSchema implements Node.
func (i *Insert) OutSchema() *types.Schema { return i.Schema }

// Children implements Node.
func (i *Insert) Children() []Node { return []Node{i.Input} }

// Label implements Node.
func (i *Insert) Label() string {
	return fmt.Sprintf("Insert (%s, lane %d, %d targets)", i.Targets[0].Table.Name, i.SegNo, len(i.Targets))
}

// RouteTarget picks the target index for a row (partition routing). For
// single-target inserts it is always 0.
func (i *Insert) RouteTarget(row types.Row) (int, error) {
	if len(i.Targets) == 1 {
		return 0, nil
	}
	parent := i.Targets[0].Table
	for ti := 1; ti < len(i.Targets); ti++ {
		t := i.Targets[ti].Table
		v := row[t.PartCol]
		switch t.PartKind {
		case PartRangeKind:
			if !t.RangeLo.IsNull() && types.Compare(v, t.RangeLo) >= 0 && types.Compare(v, t.RangeHi) < 0 {
				return ti, nil
			}
		case PartListKind:
			for _, lv := range t.ListValues {
				if types.Equal(lv, v) {
					return ti, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("plan: no partition of %s accepts value %s", parent.Name, row[parent.PartCol])
}

// Partition kind aliases (avoid importing catalog constants at call
// sites).
const (
	PartRangeKind = catalog.PartRange
	PartListKind  = catalog.PartList
)

// Motion is the sending half of a data movement (§3). Slicing replaces
// the subtree above it with a MotionRecv carrying the same ID: the index
// of the slice the motion roots. The receivers are the gang of that
// slice's Parent.
type Motion struct {
	ID    int16
	Type  MotionType
	Input Node
	// HashCols are output-column indexes for RedistributeMotion.
	HashCols []int
}

// OutSchema implements Node.
func (m *Motion) OutSchema() *types.Schema { return m.Input.OutSchema() }

// Children implements Node.
func (m *Motion) Children() []Node { return []Node{m.Input} }

// Label implements Node.
func (m *Motion) Label() string {
	l := m.Type.String()
	if m.Type == RedistributeMotion {
		l += fmt.Sprintf(" (%v)", m.HashCols)
	}
	return l
}

// MotionRecv is the receiving half of a motion. Its ID is the index of
// the sending slice, whose Segments are the senders.
type MotionRecv struct {
	ID     int16
	Schema *types.Schema
}

// OutSchema implements Node.
func (m *MotionRecv) OutSchema() *types.Schema { return m.Schema }

// Children implements Node.
func (m *MotionRecv) Children() []Node { return nil }

// Label implements Node.
func (m *MotionRecv) Label() string { return fmt.Sprintf("Motion Recv m%d", m.ID) }
