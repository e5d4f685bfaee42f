package catalog

import (
	"fmt"
	"strings"

	"hawq/internal/expr"
	"hawq/internal/sqlparser"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// CaQL is the internal catalog query language (§2.2): a deliberately tiny
// subset of SQL replacing hand-coded C catalog access. It supports
// single-table SELECT (with projection and WHERE), COUNT(), multi-row
// DELETE, and single-row INSERT/UPDATE. No joins, no planner — catalog
// access is OLTP-style index lookups, so a full SQL engine would be
// wasted machinery.

// CaQLResult is the outcome of a CaQL statement.
type CaQLResult struct {
	// Schema and Rows are set for SELECT.
	Schema *types.Schema
	Rows   []types.Row
	// Affected is the row count for INSERT/UPDATE/DELETE.
	Affected int
}

// CaQL executes a catalog query in the given transaction.
func (c *Catalog) CaQL(t *tx.Tx, query string) (*CaQLResult, error) {
	stmt, err := sqlparser.ParseOne(query)
	if err != nil {
		return nil, fmt.Errorf("caql: %w", err)
	}
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		return c.caqlSelect(t, s)
	case *sqlparser.InsertStmt:
		return c.caqlInsert(t, s)
	case *sqlparser.DeleteStmt:
		return c.caqlDelete(t, s)
	case *sqlparser.UpdateStmt:
		return c.caqlUpdate(t, s)
	default:
		return nil, fmt.Errorf("caql: unsupported statement %T", stmt)
	}
}

// bindCaQL binds a parsed expression against a system table schema. Only
// the forms CaQL needs are supported: column refs, literals, comparisons,
// AND/OR/NOT, IN lists and LIKE; each operator is resolved through the
// planner's signature table (expr.Apply), so none reaches Eval ill-typed.
func bindCaQL(e sqlparser.Expr, schema *types.Schema) (expr.Expr, error) {
	switch v := e.(type) {
	case *sqlparser.Ident:
		idx := schema.IndexOf(v.Column())
		if idx < 0 {
			return nil, fmt.Errorf("caql: unknown column %q", v.Column())
		}
		col := schema.Columns[idx]
		return &expr.ColRef{Idx: idx, K: col.Kind, Name: col.Name}, nil
	case *sqlparser.NumLit:
		if strings.ContainsAny(v.S, ".eE") {
			d, err := types.ParseDecimal(v.S)
			if err != nil {
				return nil, err
			}
			return expr.NewConst(d), nil
		}
		d, err := types.Cast(types.NewString(v.S), types.KindInt64)
		if err != nil {
			return nil, err
		}
		return expr.NewConst(d), nil
	case *sqlparser.StrLit:
		return expr.NewConst(types.NewString(v.S)), nil
	case *sqlparser.BoolLit:
		return expr.NewConst(types.NewBool(v.V)), nil
	case *sqlparser.NullLit:
		return expr.NewConst(types.Null), nil
	case *sqlparser.UnExpr:
		inner, err := bindCaQL(v.E, schema)
		if err != nil {
			return nil, err
		}
		return expr.Apply(strings.ToUpper(v.Op), inner)
	case *sqlparser.BinExpr:
		l, err := bindCaQL(v.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := bindCaQL(v.R, schema)
		if err != nil {
			return nil, err
		}
		op, ok := expr.BinOpFromSQL(v.Op)
		if !ok {
			return nil, fmt.Errorf("caql: unsupported operator %q", v.Op)
		}
		return expr.Apply(op.String(), l, r)
	case *sqlparser.LikeExpr:
		inner, err := bindCaQL(v.E, schema)
		if err != nil {
			return nil, err
		}
		pat, ok := v.Pattern.(*sqlparser.StrLit)
		if !ok {
			return nil, fmt.Errorf("caql: LIKE pattern must be a literal")
		}
		l, err := expr.NewLike(inner, pat.S, v.Negate)
		if err != nil {
			return nil, fmt.Errorf("caql: %w", err)
		}
		return l, nil
	case *sqlparser.InExpr:
		if v.Sub != nil {
			return nil, fmt.Errorf("caql: IN subqueries not supported")
		}
		inner, err := bindCaQL(v.E, schema)
		if err != nil {
			return nil, err
		}
		items := make([]expr.Expr, len(v.List))
		for i, item := range v.List {
			var pair []expr.Expr
			if items[i], err = bindCaQL(item, schema); err == nil {
				pair, err = expr.Resolve("=", inner, items[i])
			}
			if err != nil {
				return nil, err
			}
			inner, items[i] = pair[0], pair[1]
		}
		return &expr.InList{E: inner, Items: items, Negate: v.Negate}, nil
	case *sqlparser.IsNullExpr:
		inner, err := bindCaQL(v.E, schema)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: inner, Negate: v.Negate}, nil
	}
	return nil, fmt.Errorf("caql: unsupported expression %T", e)
}

func (c *Catalog) caqlTable(ref []sqlparser.TableRef) (*SysTable, error) {
	if len(ref) != 1 {
		return nil, fmt.Errorf("caql: exactly one table required")
	}
	tn, ok := ref[0].(*sqlparser.TableName)
	if !ok {
		return nil, fmt.Errorf("caql: joins and subqueries not supported")
	}
	return c.SysTable(tn.Name)
}

// caqlWhere binds a WHERE clause as Select's match (nil when there is
// none). The first evaluation error stops every later match and is kept
// in *evalErr, which the caller reports once the read is done.
func caqlWhere(where sqlparser.Expr, schema *types.Schema, evalErr *error) (func(types.Row) bool, error) {
	if where == nil {
		return nil, nil
	}
	bound, err := bindCaQL(where, schema)
	if err == nil {
		_, err = expr.Resolve("WHERE", bound)
	}
	if err != nil {
		return nil, err
	}
	return func(row types.Row) bool {
		if *evalErr != nil {
			return false
		}
		ok, err := expr.EvalBool(bound, row)
		*evalErr = err
		return ok && err == nil
	}, nil
}

func (c *Catalog) caqlSelect(t *tx.Tx, s *sqlparser.SelectStmt) (*CaQLResult, error) {
	if len(s.GroupBy) > 0 || s.Having != nil || len(s.OrderBy) > 0 || s.Distinct {
		return nil, fmt.Errorf("caql: GROUP BY / HAVING / ORDER BY / DISTINCT not supported")
	}
	sys, err := c.caqlTable(s.From)
	if err != nil {
		return nil, err
	}
	var evalErr error
	match, err := caqlWhere(s.Where, sys.Schema, &evalErr)
	if err != nil {
		return nil, err
	}
	// COUNT(*) special form.
	if len(s.Projections) == 1 && !s.Projections[0].Star {
		if f, ok := s.Projections[0].Expr.(*sqlparser.FuncExpr); ok && strings.EqualFold(f.Name, "count") {
			n := 0
			sys.Select(t.Snapshot(), match, func(uint64, types.Row) bool {
				n++
				return true
			})
			return &CaQLResult{
				Schema: types.NewSchema(types.Column{Name: "count", Kind: types.KindInt64}),
				Rows:   []types.Row{{types.NewInt64(int64(n))}},
			}, evalErr
		}
	}
	// Projection list.
	var projIdx []int
	var outSchema *types.Schema
	if len(s.Projections) == 1 && s.Projections[0].Star {
		outSchema = sys.Schema
		for i := range sys.Schema.Columns {
			projIdx = append(projIdx, i)
		}
	} else {
		var cols []types.Column
		for _, p := range s.Projections {
			id, ok := p.Expr.(*sqlparser.Ident)
			if !ok {
				return nil, fmt.Errorf("caql: projections must be plain columns")
			}
			idx := sys.Schema.IndexOf(id.Column())
			if idx < 0 {
				return nil, fmt.Errorf("caql: unknown column %q", id.Column())
			}
			projIdx = append(projIdx, idx)
			col := sys.Schema.Columns[idx]
			if p.Alias != "" {
				col.Name = p.Alias
			}
			cols = append(cols, col)
		}
		outSchema = &types.Schema{Columns: cols}
	}
	res := &CaQLResult{Schema: outSchema}
	limit := -1
	if s.Limit != nil {
		limit = int(*s.Limit)
	}
	sys.Select(t.Snapshot(), match, func(_ uint64, row types.Row) bool {
		out := make(types.Row, len(projIdx))
		for i, idx := range projIdx {
			out[i] = row[idx]
		}
		res.Rows = append(res.Rows, out)
		return limit < 0 || len(res.Rows) < limit
	})
	return res, evalErr
}

func (c *Catalog) caqlInsert(t *tx.Tx, s *sqlparser.InsertStmt) (*CaQLResult, error) {
	sys, err := c.SysTable(s.Table)
	if err != nil {
		return nil, err
	}
	if s.Select != nil || len(s.Rows) != 1 {
		return nil, fmt.Errorf("caql: INSERT is single-row only")
	}
	if len(s.Columns) > 0 {
		return nil, fmt.Errorf("caql: INSERT must supply all columns positionally")
	}
	src := s.Rows[0]
	if len(src) != sys.Schema.Len() {
		return nil, fmt.Errorf("caql: INSERT has %d values, table %s has %d columns", len(src), sys.Name, sys.Schema.Len())
	}
	row := make(types.Row, len(src))
	for i, e := range src {
		bound, err := bindCaQL(e, sys.Schema)
		if err != nil {
			return nil, err
		}
		v, err := bound.Eval(nil)
		if err != nil {
			return nil, err
		}
		if v, err = types.Cast(v, sys.Schema.Columns[i].Kind); err != nil {
			return nil, fmt.Errorf("caql: column %s: %w", sys.Schema.Columns[i].Name, err)
		}
		row[i] = v
	}
	c.insert(t, sys.Name, row)
	return &CaQLResult{Affected: 1}, nil
}

func (c *Catalog) caqlDelete(t *tx.Tx, s *sqlparser.DeleteStmt) (*CaQLResult, error) {
	sys, err := c.SysTable(s.Table)
	if err != nil {
		return nil, err
	}
	var evalErr error
	match, err := caqlWhere(s.Where, sys.Schema, &evalErr)
	if err != nil {
		return nil, err
	}
	victims, err := c.deleteWhere(t, t.Snapshot(), sys.Name, match)
	if err == nil {
		err = evalErr
	}
	return &CaQLResult{Affected: len(victims)}, err
}

func (c *Catalog) caqlUpdate(t *tx.Tx, s *sqlparser.UpdateStmt) (*CaQLResult, error) {
	sys, err := c.SysTable(s.Table)
	if err != nil {
		return nil, err
	}
	var evalErr error
	match, err := caqlWhere(s.Where, sys.Schema, &evalErr)
	if err != nil {
		return nil, err
	}
	type assignment struct {
		idx int
		e   expr.Expr
	}
	var assigns []assignment
	for _, set := range s.Set {
		idx := sys.Schema.IndexOf(set.Column)
		if idx < 0 {
			return nil, fmt.Errorf("caql: unknown column %q", set.Column)
		}
		bound, err := bindCaQL(set.Value, sys.Schema)
		if err != nil {
			return nil, err
		}
		assigns = append(assigns, assignment{idx: idx, e: bound})
	}
	// UPDATE is single-row: count under the snapshot the write judges
	// by, so a refused statement stamps nothing.
	snap, n := t.Snapshot(), 0
	sys.Select(snap, match, func(uint64, types.Row) bool {
		n++
		return n < 2
	})
	switch {
	case evalErr != nil:
		return nil, evalErr
	case n > 1:
		return nil, fmt.Errorf("caql: UPDATE matched more than one row; single-row only")
	}
	n, err = c.replace(t, snap, sys.Name, match, func(row types.Row) error {
		for _, a := range assigns {
			v, err := a.e.Eval(row)
			if err != nil {
				return err
			}
			if row[a.idx], err = types.Cast(v, sys.Schema.Columns[a.idx].Kind); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("caql: UPDATE: %w", err)
	}
	return &CaQLResult{Affected: n}, nil
}
