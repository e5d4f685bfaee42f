package planner

import (
	"fmt"
	"slices"

	"hawq/internal/expr"
	"hawq/internal/plan"
	"hawq/internal/sqlparser"
	"hawq/internal/types"
)

// PlanInsert plans an INSERT statement. The engine has already assigned
// the transaction's swimming lane (§5.4): targets carry the lane file of
// every segment (index 0 is the table itself; partitioned parents list
// their children after it), and segno is the lane number.
func (p *Planner) PlanInsert(stmt *sqlparser.InsertStmt, targets []plan.InsertTarget, segno int) (*plan.Plan, error) {
	desc := targets[0].Table
	schema := desc.Schema

	// Source relation.
	var src *relation
	if stmt.Select != nil {
		rel, err := p.planQuery(stmt.Select)
		if err != nil {
			return nil, err
		}
		src = rel
	} else {
		rows, err := p.evalValuesRows(stmt, schema)
		if err != nil {
			return nil, err
		}
		src = &relation{
			node: &plan.Values{Rows: rows, Schema: schema},
			dist: distInfo{kind: distQD},
			rows: float64(len(rows)),
		}
	}
	return p.planInsertFrom(src, targets, segno)
}

// PlanCopy plans a bulk load of pre-built rows (the COPY path): same
// machinery as INSERT ... VALUES without going through the parser.
func (p *Planner) PlanCopy(rows []types.Row, targets []plan.InsertTarget, segno int) (*plan.Plan, error) {
	desc := targets[0].Table
	schema := desc.Schema
	cast := make([]types.Row, len(rows))
	for i, r := range rows {
		if len(r) != schema.Len() {
			return nil, fmt.Errorf("planner: COPY row %d has %d columns, table %s has %d",
				i, len(r), desc.Name, schema.Len())
		}
		out := make(types.Row, len(r))
		for j, d := range r {
			v, err := types.Cast(d, schema.Columns[j].Kind)
			if err != nil {
				return nil, fmt.Errorf("planner: COPY column %s: %w", schema.Columns[j].Name, err)
			}
			out[j] = v
		}
		cast[i] = out
	}
	src := &relation{
		node: &plan.Values{Rows: cast, Schema: schema},
		dist: distInfo{kind: distQD},
		rows: float64(len(cast)),
	}
	return p.planInsertFrom(src, targets, segno)
}

// planInsertFrom is the shared tail of INSERT/COPY planning.
func (p *Planner) planInsertFrom(src *relation, targets []plan.InsertTarget, segno int) (*plan.Plan, error) {
	desc := targets[0].Table
	schema := desc.Schema
	if src.schema().Len() != schema.Len() {
		return nil, fmt.Errorf("planner: INSERT source has %d columns, table %s has %d",
			src.schema().Len(), desc.Name, schema.Len())
	}
	// Coerce source columns to the table's kinds.
	src = castTo(src, schema)

	// Route rows to their segments.
	var distributed *relation
	if desc.Dist.Random {
		distributed = p.redistributeCols(src, nil)
	} else {
		cols := desc.Dist.Cols
		if len(cols) == 0 {
			cols = []int{0}
		}
		if src.dist.kind == distHash && slices.Equal(src.dist.cols, cols) {
			distributed = src // already in place (INSERT ... SELECT same key)
		} else {
			distributed = p.redistributeCols(src, cols)
		}
	}

	countSchema := types.NewSchema(types.Column{Name: "count", Kind: types.KindInt64})
	ins := &plan.Insert{
		Targets: targets,
		Input:   distributed.node,
		SegNo:   segno,
		Schema:  countSchema,
	}
	gather := &plan.Motion{Type: plan.GatherMotion, Input: ins}
	sliced := plan.Build(gather, []int{plan.QDSegment}, p.allSegments(), p.NumSegments)
	sliced.SegFileUpdatesExpected = true
	return sliced, nil
}

// evalValuesRows evaluates INSERT ... VALUES literal rows, honoring an
// explicit column list (missing columns become NULL).
func (p *Planner) evalValuesRows(stmt *sqlparser.InsertStmt, schema *types.Schema) ([]types.Row, error) {
	colIdx := make([]int, 0, len(stmt.Columns))
	if len(stmt.Columns) > 0 {
		for _, name := range stmt.Columns {
			idx := schema.IndexOf(name)
			if idx < 0 {
				return nil, fmt.Errorf("planner: column %q of relation does not exist", name)
			}
			colIdx = append(colIdx, idx)
		}
	} else {
		for i := 0; i < schema.Len(); i++ {
			colIdx = append(colIdx, i)
		}
	}
	b := p.binder(&scope{schema: types.NewSchema()})
	var rows []types.Row
	for _, astRow := range stmt.Rows {
		if len(astRow) != len(colIdx) {
			return nil, fmt.Errorf("planner: INSERT has %d expressions but %d target columns", len(astRow), len(colIdx))
		}
		row := make(types.Row, schema.Len())
		for i := range row {
			row[i] = types.Null
		}
		for i, e := range astRow {
			bound, err := b.bind(e)
			if err != nil {
				return nil, err
			}
			v, err := bound.Eval(nil)
			if err != nil {
				return nil, err
			}
			target := schema.Columns[colIdx[i]]
			if v, err = types.Cast(v, target.Kind); err != nil {
				return nil, fmt.Errorf("planner: column %q: %w", target.Name, err)
			}
			row[colIdx[i]] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// castTo wraps the relation with casts so its schema matches the target.
func castTo(rel *relation, target *types.Schema) *relation {
	in := rel.schema()
	needs := false
	exprs := make([]expr.Expr, target.Len())
	for i := 0; i < target.Len(); i++ {
		ref := &expr.ColRef{Idx: i, K: in.Columns[i].Kind, Name: in.Columns[i].Name}
		if in.Columns[i].Kind != target.Columns[i].Kind {
			exprs[i] = &expr.Cast{E: ref, To: target.Columns[i].Kind}
			needs = true
		} else {
			exprs[i] = ref
		}
	}
	if !needs {
		return rel
	}
	node := &plan.Project{Input: rel.node, Exprs: exprs, Schema: target}
	return &relation{node: node, cols: schemaCols(target), dist: projectDist(rel.dist, exprs), rows: rel.rows}
}
