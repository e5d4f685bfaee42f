package planner

import (
	"fmt"
	"slices"
	"strings"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/plan"
	"hawq/internal/sqlparser"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// Planner builds sliced physical plans from parse trees.
type Planner struct {
	Cat         *catalog.Catalog
	Snap        tx.Snapshot
	NumSegments int
	// SubqueryEval executes an uncorrelated scalar subquery at plan time
	// and returns its single datum (wired to the engine's executor).
	SubqueryEval func(*sqlparser.SelectStmt) (types.Datum, error)

	// DisableDirectDispatch turns off the single-segment dispatch
	// optimization (§3), for the ablation benchmark.
	DisableDirectDispatch bool
	// DisablePartitionElim turns off partition elimination (§2.3).
	DisablePartitionElim bool
	// DisableColocation makes every join redistribute, ignoring existing
	// distributions (ablation).
	DisableColocation bool

	// Params supplies EXECUTE argument values for $n placeholders, bound
	// into the plan as constants (specific planning; the plan must not be
	// cached across different argument values).
	Params []types.Datum
	// GenericParams plans $n placeholders as execution-time expr.Param
	// nodes instead, so the plan is value-independent and cacheable; the
	// emitted plan's ParamKinds records each placeholder's inferred kind.
	GenericParams bool

	// st is what the statement being planned shares across its blocks,
	// made afresh by PlanSelect and lazily by the other entry points.
	st *stmtState
}

// stmtState is one statement's shared planning state.
type stmtState struct {
	prm paramBinder
	// stats holds every analyzed column's statistics by table OID, read
	// in one catalog pass when the statement joins (joins); nil otherwise.
	stats map[int64][]catalog.ColStats
	descs []*catalog.TableDesc // the tables looked up so far (Planner.table), each once
	// ids counts the column ids given out (scopeCol.id); eq is their
	// classes.
	ids colID
	eq  classes
}

// joins reports whether some block of stmt joins: several FROM items, an
// explicit JOIN or a subquery in WHERE. Only then does an estimate decide
// anything, so only then are statistics read.
func joins(stmt *sqlparser.SelectStmt) bool {
	found := len(stmt.From) > 1
	identRefs(stmt.Where, new([]*sqlparser.Ident), func(*sqlparser.SelectStmt) { found = true })
	for _, ref := range stmt.From {
		switch v := ref.(type) {
		case *sqlparser.Join:
			found = true
		case *sqlparser.SubqueryRef:
			found = found || joins(v.Select)
		}
	}
	return found
}

// paramBinder resolves $n placeholders during binding. In specific mode
// each placeholder becomes a Const holding the EXECUTE argument; in
// generic mode it becomes an expr.Param whose kind is inferred from
// comparison context.
type paramBinder struct {
	vals    []types.Datum // specific mode values (nil in generic mode)
	generic bool
	kinds   []types.Kind // generic mode: inferred kind per 0-based index
}

// paramBinder returns the statement's shared placeholder binder.
func (p *Planner) paramBinder() *paramBinder {
	if p.st == nil {
		p.st = &stmtState{prm: paramBinder{vals: p.Params, generic: p.GenericParams}}
	}
	return &p.st.prm
}

// bind resolves the 1-based placeholder idx.
func (pb *paramBinder) bind(idx int) (expr.Expr, error) {
	if pb == nil || (!pb.generic && pb.vals == nil) {
		return nil, fmt.Errorf("planner: parameter $%d not allowed in this context", idx)
	}
	if pb.generic {
		for len(pb.kinds) < idx {
			pb.kinds = append(pb.kinds, types.KindNull)
		}
		return &expr.Param{Idx: idx - 1, K: pb.kinds[idx-1]}, nil
	}
	if idx > len(pb.vals) {
		return nil, fmt.Errorf("planner: parameter $%d out of range (%d supplied)", idx, len(pb.vals))
	}
	return expr.NewConst(pb.vals[idx-1]), nil
}

// infer fixes an unknown-kind Param on one side of a comparison or
// arithmetic to the other side's kind, so EXECUTE can cast argument
// values before binding (e.g. a date column compared to $1 makes $1 a
// date even when the argument arrives as a string).
func (pb *paramBinder) infer(a, b expr.Expr) {
	if pb == nil || !pb.generic {
		return
	}
	pa, ok := a.(*expr.Param)
	if !ok || pa.K != types.KindNull {
		return
	}
	if _, otherParam := b.(*expr.Param); otherParam {
		return
	}
	k := b.Kind()
	if k == types.KindNull {
		return
	}
	pa.K = k
	if pa.Idx < len(pb.kinds) && pb.kinds[pa.Idx] == types.KindNull {
		pb.kinds[pa.Idx] = k
	}
}

// distKind classifies how a relation's rows are spread across the
// cluster.
type distKind uint8

const (
	distHash       distKind = iota // hashed on dist cols
	distRandom                     // partitioned, no usable key
	distReplicated                 // full copy on every segment
	distQD                         // single copy on the master
)

type distInfo struct {
	kind distKind
	cols []int
}

// relation is a planned subtree plus binding/distribution/cardinality
// metadata.
type relation struct {
	node plan.Node
	cols []scopeCol
	dist distInfo
	rows float64
	// direct, when non-nil, lists the only segments holding data
	// (direct dispatch, §3). Lost on joins.
	direct []int
	// directKeys, when non-nil, defers the direct-dispatch segment
	// choice to bind time: the distribution key is pinned by $n
	// placeholders (generic plans), so BindParams hashes the bound
	// values. Lost on joins, like direct.
	directKeys []plan.DirectKey
}

// pos returns the position of rel's column whose id is id, or -1.
func (r *relation) pos(id colID) int {
	for i, c := range r.cols {
		if c.id == id {
			return i
		}
	}
	return -1
}

// classes holds the column classes of every block of a statement
// (DESIGN.md §19, "One column identity"): c[id] names id's class, and an
// id past the end is alone in its own. Ids are unique in the statement
// and a block equates only its own, so the blocks' classes never meet.
type classes []colID

// same reports whether ids a and b are of one class; id 0, a column the
// block computes, is of none.
func (c classes) same(a, b colID) bool {
	return a != 0 && b != 0 && (a == b || int(max(a, b)) < len(c) && c[a] == c[b])
}

// union merges the classes of ids a and b.
func (st *stmtState) union(a, b colID) {
	if n := int(st.ids) + 1 - len(st.eq); n > 0 {
		st.eq = slices.Grow(st.eq, n+len(st.eq))
		for len(st.eq) <= int(st.ids) {
			st.eq = append(st.eq, colID(len(st.eq)))
		}
	}
	from, to := st.eq[a], st.eq[b]
	for i, c := range st.eq {
		if c == from {
			st.eq[i] = to
		}
	}
}

// equal reports whether rel's columns i and j hold one value in every row
// the block outputs: one column, or two of one class.
func (p *Planner) equal(rel *relation, i, j int) bool {
	return i == j || p.st.eq.same(rel.cols[i].id, rel.cols[j].id)
}

// newID returns a fresh column id.
func (p *Planner) newID() colID {
	p.paramBinder() // makes p.st
	p.st.ids++
	return p.st.ids
}

func (r *relation) schema() *types.Schema { return r.node.OutSchema() }

func (r *relation) scope() *scope {
	return &scope{cols: r.cols, schema: r.schema()}
}

// allSegments returns [0..n).
func (p *Planner) allSegments() []int { return upTo(p.NumSegments) }

// upTo returns [0, n).
func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// PlanSelect plans a SELECT statement into a sliced plan whose top slice
// runs on the QD.
func (p *Planner) PlanSelect(stmt *sqlparser.SelectStmt) (*plan.Plan, error) {
	// What an earlier statement inferred about its placeholders says
	// nothing about this one's.
	p.st = nil
	p.paramBinder()
	if joins(stmt) {
		// One catalog pass for the statistics of every table it reads.
		var oids []int64
		sqlparser.Tables(stmt, func(name string) {
			if desc, err := p.table(name); err == nil {
				oids = append(oids, desc.OID)
			}
		})
		p.st.stats = p.Cat.ColStatsOf(p.Snap, oids)
	}
	rel, err := p.planQuery(stmt)
	if err != nil {
		return nil, err
	}
	rel = p.gatherToQD(rel)
	sliced := plan.Build(rel.node, []int{plan.QDSegment}, p.allSegments(), p.NumSegments)
	if p.st.prm.generic {
		sliced.ParamKinds = p.st.prm.kinds
	}
	return sliced, nil
}

// gatherToQD adds a gather motion unless the relation is already on the
// master.
func (p *Planner) gatherToQD(rel *relation) *relation {
	if rel.dist.kind == distQD {
		return rel
	}
	var input plan.Node = rel.node
	if !p.DisableDirectDispatch {
		switch {
		case rel.direct != nil:
			input = &plan.SenderHint{Input: input, Segments: rel.direct}
		case rel.directKeys != nil:
			input = &plan.SenderHint{Input: input, Segments: p.allSegments(), DeferredKeys: rel.directKeys}
		}
	}
	m := &plan.Motion{Type: plan.GatherMotion, Input: input}
	return &relation{node: m, cols: rel.cols, dist: distInfo{kind: distQD}, rows: rel.rows}
}

// planQuery plans a full SELECT (including aggregation, ordering and
// limit) and returns a relation. ORDER BY and LIMIT force the result to
// the QD; otherwise it stays distributed.
func (p *Planner) planQuery(stmt *sqlparser.SelectStmt) (*relation, error) {
	rel, err := p.planFromWhere(stmt)
	if err != nil {
		return nil, err
	}
	rel, aggScp, err := p.planAggregation(rel, stmt)
	if err != nil {
		return nil, err
	}
	return p.planOutput(rel, aggScp, stmt)
}

// conjuncts flattens an AND tree.
func conjuncts(e sqlparser.Expr) []sqlparser.Expr { return flatten("and", e) }

// flatten lists the operands of a tree of one binary operator.
func flatten(op string, e sqlparser.Expr) []sqlparser.Expr {
	if b, ok := e.(*sqlparser.BinExpr); ok && b.Op == op {
		return append(flatten(op, b.L), flatten(op, b.R)...)
	}
	return []sqlparser.Expr{e}
}

// identRefs collects the identifiers in a syntax expression. Subqueries
// are not descended into: sub is called on each instead.
func identRefs(e sqlparser.Expr, out *[]*sqlparser.Ident, sub func(*sqlparser.SelectStmt)) {
	sqlparser.Inspect(e, func(x sqlparser.Expr) bool {
		switch v := x.(type) {
		case *sqlparser.Ident:
			*out = append(*out, v)
		case *sqlparser.InExpr:
			if v.Sub != nil {
				sub(v.Sub)
			}
		case *sqlparser.ExistsExpr:
			sub(v.Sub)
		case *sqlparser.SubqueryExpr:
			sub(v.Sub)
		}
		return true
	})
}

// outputName is the name a select-list item's column is known by.
func outputName(item sqlparser.SelectItem, i int) string {
	if item.Alias != "" {
		return item.Alias
	}
	if id, ok := item.Expr.(*sqlparser.Ident); ok {
		return id.Column()
	}
	if f, ok := item.Expr.(*sqlparser.FuncExpr); ok {
		return strings.ToLower(f.Name)
	}
	return fmt.Sprintf("column%d", i+1)
}

// refCol references column i of cols.
func refCol(cols []types.Column, i int) *expr.ColRef {
	return &expr.ColRef{Idx: i, K: cols[i].Kind, Name: cols[i].Name}
}

// kindToColumn derives an output column from a bound expression.
func kindToColumn(name string, e expr.Expr) types.Column {
	col := types.Column{Name: name, Kind: e.Kind()}
	if col.Kind == types.KindDecimal {
		col.Scale = 2
	}
	return col
}
