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
	if stmt.Select != nil {
		src, err := p.planQuery(stmt.Select)
		if err != nil {
			return nil, err
		}
		return p.planInsertFrom(src, targets, segno)
	}
	schema := targets[0].Table.Schema
	rows, err := p.evalValuesRows(stmt, schema)
	if err != nil {
		return nil, err
	}
	return p.planInsertFrom(values(rows, schema), targets, segno)
}

// values is rows, on the master.
func values(rows []types.Row, schema *types.Schema) *relation {
	return &relation{node: &plan.Values{Rows: rows, Schema: schema}, dist: distInfo{kind: distQD}, rows: float64(len(rows))}
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
		cast[i] = make(types.Row, len(r))
		for j, d := range r {
			var err error
			if cast[i][j], err = types.Cast(d, schema.Columns[j].Kind); err != nil {
				return nil, fmt.Errorf("planner: COPY column %s: %w", schema.Columns[j].Name, err)
			}
		}
	}
	return p.planInsertFrom(values(cast, schema), targets, segno)
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

	// Route rows to their segments, unless INSERT ... SELECT has them
	// hashed on the table's key already. A random table has no key.
	var cols []int
	if !desc.Dist.Random {
		if cols = desc.Dist.Cols; len(cols) == 0 {
			cols = []int{0}
		}
	}
	distributed := src
	if cols == nil || src.dist.kind != distHash || !slices.Equal(src.dist.cols, cols) {
		distributed = p.redistributeCols(src, cols)
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
	colIdx := upTo(schema.Len())
	if len(stmt.Columns) > 0 {
		colIdx = colIdx[:0]
		for _, name := range stmt.Columns {
			idx := schema.IndexOf(name)
			if idx < 0 {
				return nil, fmt.Errorf("planner: column %q of relation does not exist", name)
			}
			colIdx = append(colIdx, idx)
		}
	}
	b := p.binder(&scope{schema: types.NewSchema()})
	var rows []types.Row
	for _, astRow := range stmt.Rows {
		if len(astRow) != len(colIdx) {
			return nil, fmt.Errorf("planner: INSERT has %d expressions but %d target columns", len(astRow), len(colIdx))
		}
		row := make(types.Row, schema.Len()) // all NULL: the zero Datum
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
	for i := range exprs {
		exprs[i] = refCol(in.Columns, i)
		if in.Columns[i].Kind != target.Columns[i].Kind {
			exprs[i] = &expr.Cast{E: exprs[i], To: target.Columns[i].Kind}
			needs = true
		}
	}
	if !needs {
		return rel
	}
	node := &plan.Project{Input: rel.node, Exprs: exprs, Schema: target}
	return &relation{node: node, cols: schemaCols(target), dist: projectDist(rel.dist, exprs), rows: rel.rows}
}
