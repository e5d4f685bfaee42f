package planner

import (
	"fmt"
	"slices"

	"hawq/internal/catalog"
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
		if src, err = castTo(src, targets[0].Table); err != nil {
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
	cast := rows // the caller's: a row a cast changes is copied, and the slice with it
	for i, r := range rows {
		if len(r) != schema.Len() {
			return nil, fmt.Errorf("planner: COPY row %d has %d columns, table %s has %d",
				i, len(r), desc.Name, schema.Len())
		}
		for j, d := range r {
			c, err := types.CastScale(d, schema.Columns[j].Kind, schema.Columns[j].Scale)
			if err != nil {
				return nil, fmt.Errorf("planner: COPY column %s: %w", schema.Columns[j].Name, err)
			}
			if c != d {
				if &cast[0] == &rows[0] {
					cast = slices.Clone(rows)
				}
				if &cast[i][0] == &r[0] {
					cast[i] = slices.Clone(r)
				}
				cast[i][j] = c
			}
		}
	}
	return p.planInsertFrom(values(cast, schema), targets, segno)
}

// planInsertFrom is the shared tail of INSERT/COPY planning: src's
// values already fit the table's columns.
func (p *Planner) planInsertFrom(src *relation, targets []plan.InsertTarget, segno int) (*plan.Plan, error) {
	desc := targets[0].Table
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
			target := schema.Columns[colIdx[i]]
			if target.Kind == types.KindDecimal {
				e = decimalText(e)
			}
			bound, err := b.bind(e)
			if err != nil {
				return nil, err
			}
			v, err := bound.Eval(nil)
			if err != nil {
				return nil, err
			}
			if v, err = types.CastScale(v, target.Kind, target.Scale); err != nil {
				return nil, fmt.Errorf("planner: column %q: %w", target.Name, err)
			}
			row[colIdx[i]] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// castTo wraps a query's relation with casts so its values fit the
// table's columns, as types.CastScale fits a VALUES or COPY row's: a
// column of another kind, and every DECIMAL column, rounded to its
// declared scale whatever scale its values come with.
func castTo(rel *relation, desc *catalog.TableDesc) (*relation, error) {
	in, target := rel.schema(), desc.Schema
	if in.Len() != target.Len() {
		return nil, fmt.Errorf("planner: INSERT source has %d columns, table %s has %d",
			in.Len(), desc.Name, target.Len())
	}
	needs := false
	exprs := make([]expr.Expr, target.Len())
	for i := range exprs {
		exprs[i] = refCol(in.Columns, i)
		if t := target.Columns[i]; in.Columns[i].Kind != t.Kind || t.Kind == types.KindDecimal {
			exprs[i] = &expr.Cast{E: exprs[i], To: t.Kind, Scale: t.Scale}
			needs = true
		}
	}
	if !needs {
		return rel, nil
	}
	node := &plan.Project{Input: rel.node, Exprs: exprs, Schema: target}
	return &relation{node: node, cols: schemaCols(target), dist: projectDist(rel.dist, exprs), rows: rel.rows}, nil
}
