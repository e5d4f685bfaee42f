package stinger

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"hawq/internal/expr"
	"hawq/internal/planner"
	"hawq/internal/sqlparser"
	"hawq/internal/types"
)

// nullBucket is the join key bucket for NULL-keyed outer rows of LEFT
// joins and anti joins (they never match but must still be emitted).
var nullBucket = []byte{1}

// joinJob runs one repartition join: both inputs shuffle on the join
// key, the reducer builds the cross product per key.
func (e *Engine) joinJob(l, r *rel, leftKeys, rightKeys []int, leftOuter bool, now []sqlparser.Expr) (*rel, error) {
	out := &rel{
		quals:  append(append([]string{}, l.quals...), r.quals...),
		names:  append(append([]string{}, l.names...), r.names...),
		schema: l.schema.Concat(r.schema),
	}
	lf, err := e.filterFor(l, nil)
	if err != nil {
		return nil, err
	}
	rf, err := e.filterFor(r, nil)
	if err != nil {
		return nil, err
	}
	var residual expr.Expr
	for _, c := range now {
		bound, err := planner.BindPredicate(c, out.scope(), e.scalarQuery)
		if err != nil {
			return nil, err
		}
		if residual == nil {
			residual = bound
		} else {
			residual = expr.NewBinOp(expr.OpAnd, residual, bound)
		}
	}
	cross := len(leftKeys) == 0
	mapper := func(filter expr.Expr, keys []int, outerSide bool) MapFn {
		return func(row types.Row, emit func([]byte, types.Row) error) error {
			if filter != nil {
				ok, err := expr.EvalBool(filter, row)
				if err != nil || !ok {
					return err
				}
			}
			if cross {
				return emit([]byte{0}, row)
			}
			key, ok := encodeJoinKey(row, keys)
			if !ok {
				if outerSide && leftOuter {
					return emit(nullBucket, row)
				}
				return nil // NULL keys never join
			}
			return emit(key, row)
		}
	}
	rightWidth := r.schema.Len()
	reduce := func(key []byte, tagged [][]types.Row, emit func(types.Row) error) error {
		lefts, rights := tagged[0], tagged[1]
		if len(key) == 1 && key[0] == 1 {
			// NULL bucket: left-outer rows with NULL keys.
			for _, lr := range lefts {
				if err := emit(append(append(types.Row{}, lr...), make(types.Row, rightWidth)...)); err != nil {
					return err
				}
			}
			return nil
		}
		for _, lr := range lefts {
			matched := false
			for _, rr := range rights {
				row := append(append(types.Row{}, lr...), rr...)
				if residual != nil {
					ok, err := expr.EvalBool(residual, row)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
				}
				matched = true
				if err := emit(row); err != nil {
					return err
				}
			}
			if leftOuter && !matched {
				if err := emit(append(append(types.Row{}, lr...), make(types.Row, rightWidth)...)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	parts, err := e.runJob(JobSpec{
		Name: "join",
		Inputs: []Input{
			{Tag: 0, Read: e.reader(l), Map: mapper(lf, leftKeys, true)},
			{Tag: 1, Read: e.reader(r), Map: mapper(rf, rightKeys, false)},
		},
		Reduce: reduce,
		Output: e.tmpPath("join"),
	})
	if err != nil {
		return nil, err
	}
	out.parts = parts
	return out, nil
}

// semiPredicate is an IN/EXISTS subquery predicate.
type semiPredicate struct {
	sub       *sqlparser.SelectStmt
	anti      bool
	outerExpr sqlparser.Expr // nil for EXISTS
}

func asSemiPredicate(c sqlparser.Expr) *semiPredicate {
	switch v := c.(type) {
	case *sqlparser.ExistsExpr:
		return &semiPredicate{sub: v.Sub, anti: v.Negate}
	case *sqlparser.UnExpr:
		if v.Op == "not" {
			if ex, ok := v.E.(*sqlparser.ExistsExpr); ok {
				return &semiPredicate{sub: ex.Sub, anti: !ex.Negate}
			}
		}
	case *sqlparser.InExpr:
		if v.Sub != nil {
			return &semiPredicate{sub: v.Sub, anti: v.Negate, outerExpr: v.E}
		}
	}
	return nil
}

// lightScope builds a name-resolution-only scope for a FROM item without
// compiling it (used for correlation tests).
func (e *Engine) lightScope(ref sqlparser.TableRef) (planner.BindScope, error) {
	var sc planner.BindScope
	switch v := ref.(type) {
	case *sqlparser.TableName:
		t, err := e.table(v.Name)
		if err != nil {
			return sc, err
		}
		alias := strings.ToLower(v.Alias)
		if alias == "" {
			alias = strings.ToLower(v.Name)
		}
		for _, c := range t.Schema.Columns {
			sc.Quals = append(sc.Quals, alias)
			sc.Names = append(sc.Names, strings.ToLower(c.Name))
		}
		sc.Schema = t.Schema
	case *sqlparser.SubqueryRef:
		cols := make([]types.Column, 0, len(v.Select.Projections))
		for i, item := range v.Select.Projections {
			name := item.Alias
			if name == "" {
				if id, ok := item.Expr.(*sqlparser.Ident); ok {
					name = id.Column()
				} else {
					name = fmt.Sprintf("column%d", i+1)
				}
			}
			sc.Quals = append(sc.Quals, strings.ToLower(v.Alias))
			sc.Names = append(sc.Names, strings.ToLower(name))
			cols = append(cols, types.Column{Name: name})
		}
		sc.Schema = &types.Schema{Columns: cols}
	case *sqlparser.Join:
		lsc, err := e.lightScope(v.Left)
		if err != nil {
			return sc, err
		}
		rsc, err := e.lightScope(v.Right)
		if err != nil {
			return sc, err
		}
		sc.Quals = append(lsc.Quals, rsc.Quals...)
		sc.Names = append(lsc.Names, rsc.Names...)
		sc.Schema = lsc.Schema.Concat(rsc.Schema)
	}
	return sc, nil
}

func (e *Engine) resolvesInSub(id *sqlparser.Ident, sub *sqlparser.SelectStmt) bool {
	for _, ref := range sub.From {
		sc, err := e.lightScope(ref)
		if err != nil {
			continue
		}
		if _, ok := planner.ResolveIn(id, sc); ok {
			return true
		}
	}
	return false
}

// semiJob implements IN/EXISTS as a repartition semi join, extracting
// equality correlation like the HAWQ planner does.
func (e *Engine) semiJob(acc *rel, sp *semiPredicate) (*rel, error) {
	sub := sp.sub
	var localWhere sqlparser.Expr
	var corrOuter, corrInner []*sqlparser.Ident
	if sub.Where != nil {
		for _, c := range planner.Conjuncts(sub.Where) {
			if l, r, ok := planner.EquiJoinSides(c); ok {
				_, lOuter := planner.ResolveIn(l, acc.scope())
				_, rOuter := planner.ResolveIn(r, acc.scope())
				if lOuter && e.resolvesInSub(r, sub) && !e.resolvesInSub(l, sub) {
					corrOuter = append(corrOuter, l)
					corrInner = append(corrInner, r)
					continue
				}
				if rOuter && e.resolvesInSub(l, sub) && !e.resolvesInSub(r, sub) {
					corrOuter = append(corrOuter, r)
					corrInner = append(corrInner, l)
					continue
				}
			}
			if localWhere == nil {
				localWhere = c
			} else {
				localWhere = &sqlparser.BinExpr{Op: "and", L: localWhere, R: c}
			}
		}
	}
	inner := &sqlparser.SelectStmt{From: sub.From, Where: localWhere, GroupBy: sub.GroupBy, Having: sub.Having}
	if sp.outerExpr != nil {
		if len(sub.Projections) != 1 || sub.Projections[0].Star {
			return nil, fmt.Errorf("stinger: IN subquery must select one column")
		}
		inner.Projections = append(inner.Projections, sub.Projections[0])
	}
	for _, ci := range corrInner {
		inner.Projections = append(inner.Projections, sqlparser.SelectItem{Expr: ci})
	}
	if len(inner.Projections) == 0 {
		return nil, fmt.Errorf("stinger: EXISTS subquery has no correlation")
	}
	innerRel, err := e.compile(inner)
	if err != nil {
		return nil, err
	}
	// Outer keys.
	var outerKeys []int
	if sp.outerExpr != nil {
		bound, err := planner.Bind(sp.outerExpr, acc.scope(), e.scalarQuery)
		if err != nil {
			return nil, err
		}
		cr, ok := bound.(*expr.ColRef)
		if !ok {
			return nil, fmt.Errorf("stinger: IN subquery outer expression must be a column")
		}
		outerKeys = append(outerKeys, cr.Idx)
	}
	for _, co := range corrOuter {
		idx, ok := planner.ResolveIn(co, acc.scope())
		if !ok {
			return nil, fmt.Errorf("stinger: cannot resolve %s", co)
		}
		outerKeys = append(outerKeys, idx)
	}
	innerKeys := make([]int, len(outerKeys))
	for i := range innerKeys {
		innerKeys[i] = i
	}
	af, err := e.filterFor(acc, nil)
	if err != nil {
		return nil, err
	}
	anti := sp.anti
	outerMap := func(row types.Row, emit func([]byte, types.Row) error) error {
		if af != nil {
			ok, err := expr.EvalBool(af, row)
			if err != nil || !ok {
				return err
			}
		}
		key, ok := encodeJoinKey(row, outerKeys)
		if !ok {
			if anti {
				return emit(nullBucket, row)
			}
			return nil
		}
		return emit(key, row)
	}
	innerMap := func(row types.Row, emit func([]byte, types.Row) error) error {
		key, ok := encodeJoinKey(row, innerKeys)
		if !ok {
			return nil
		}
		return emit(key, types.Row{})
	}
	reduce := func(key []byte, tagged [][]types.Row, emit func(types.Row) error) error {
		present := len(tagged[1]) > 0
		if len(key) == 1 && key[0] == 1 {
			present = false // NULL bucket never matches
		}
		if present != anti {
			for _, row := range tagged[0] {
				if err := emit(row); err != nil {
					return err
				}
			}
		}
		return nil
	}
	parts, err := e.runJob(JobSpec{
		Name: "semijoin",
		Inputs: []Input{
			{Tag: 0, Read: e.reader(acc), Map: outerMap},
			{Tag: 1, Read: e.reader(innerRel), Map: innerMap},
		},
		Reduce: reduce,
		Output: e.tmpPath("semi"),
	})
	if err != nil {
		return nil, err
	}
	return &rel{parts: parts, quals: acc.quals, names: acc.names, schema: acc.schema}, nil
}

// outputJob handles aggregation / projection, returning the projected
// relation (visible + hidden sort columns), the hidden count, the sort
// keys and limit/offset.
func (e *Engine) outputJob(acc *rel, stmt *sqlparser.SelectStmt) (*rel, int, []sortKey, int64, int64, error) {
	var aggCalls []*sqlparser.FuncExpr
	seen := map[string]bool{}
	items := stmt.Projections
	// Expand stars.
	var expanded []sqlparser.SelectItem
	for _, item := range items {
		if !item.Star {
			expanded = append(expanded, item)
			continue
		}
		for i, name := range acc.names {
			parts := []string{name}
			if acc.quals[i] != "" {
				parts = []string{acc.quals[i], name}
			}
			expanded = append(expanded, sqlparser.SelectItem{Expr: &sqlparser.Ident{Parts: parts}})
		}
	}
	items = expanded
	for _, item := range items {
		planner.CollectAggregates(item.Expr, &aggCalls, seen)
	}
	planner.CollectAggregates(stmt.Having, &aggCalls, seen)
	for _, o := range stmt.OrderBy {
		planner.CollectAggregates(o.Expr, &aggCalls, seen)
	}

	var limit, offset int64 = -1, 0
	if stmt.Limit != nil {
		limit = *stmt.Limit
	}
	if stmt.Offset != nil {
		offset = *stmt.Offset
	}

	if len(aggCalls) == 0 && len(stmt.GroupBy) == 0 {
		out, hidden, keys, err := e.projectJob(acc, items, stmt.OrderBy)
		return out, hidden, keys, limit, offset, err
	}
	out, hidden, keys, err := e.aggJob(acc, stmt, items, aggCalls)
	return out, hidden, keys, limit, offset, err
}

// sortKey is one resolved ORDER BY key over the projected row.
type sortKey struct {
	col  int
	desc bool
}

// resolveOrderKeys maps ORDER BY expressions onto projection columns,
// appending hidden columns for keys not in the select list. bindKey
// binds an expression in the caller's context (plain or aggregate).
func resolveOrderKeys(items []sqlparser.SelectItem, orderBy []sqlparser.OrderItem,
	bindKey func(sqlparser.Expr) (expr.Expr, error),
	exprs *[]expr.Expr, cols *[]types.Column) ([]sortKey, int, error) {
	hidden := 0
	var keys []sortKey
	for _, o := range orderBy {
		idx := -1
		switch v := o.Expr.(type) {
		case *sqlparser.NumLit:
			n, err := strconv.Atoi(v.S)
			if err != nil || n < 1 || n > len(items) {
				return nil, 0, fmt.Errorf("stinger: ORDER BY position %s", v.S)
			}
			idx = n - 1
		case *sqlparser.Ident:
			if v.Qualifier() == "" {
				for i, item := range items {
					name := item.Alias
					if name == "" {
						if id, ok := item.Expr.(*sqlparser.Ident); ok {
							name = id.Column()
						}
					}
					if strings.EqualFold(name, v.Column()) {
						idx = i
						break
					}
				}
			}
		}
		if idx == -1 {
			s := o.Expr.String()
			for i, item := range items {
				if item.Expr.String() == s {
					idx = i
					break
				}
			}
		}
		if idx == -1 {
			bound, err := bindKey(o.Expr)
			if err != nil {
				return nil, 0, err
			}
			*exprs = append(*exprs, bound)
			*cols = append(*cols, types.Column{Name: fmt.Sprintf("sort%d", hidden), Kind: bound.Kind()})
			idx = len(*exprs) - 1
			hidden++
		}
		keys = append(keys, sortKey{col: idx, desc: o.Desc})
	}
	return keys, hidden, nil
}

// projectJob projects rows without aggregation (one MR job, as Hive
// materializes even simple select-where stages).
func (e *Engine) projectJob(acc *rel, items []sqlparser.SelectItem, orderBy []sqlparser.OrderItem) (*rel, int, []sortKey, error) {
	filter, err := e.filterFor(acc, nil)
	if err != nil {
		return nil, 0, nil, err
	}
	var exprs []expr.Expr
	var cols []types.Column
	for i, item := range items {
		bound, err := planner.Bind(item.Expr, acc.scope(), e.scalarQuery)
		if err != nil {
			return nil, 0, nil, err
		}
		exprs = append(exprs, bound)
		name := item.Alias
		if name == "" {
			if id, ok := item.Expr.(*sqlparser.Ident); ok {
				name = id.Column()
			} else {
				name = fmt.Sprintf("column%d", i+1)
			}
		}
		cols = append(cols, types.Column{Name: strings.ToLower(name), Kind: bound.Kind()})
	}
	keys, hidden, err := resolveOrderKeys(items, orderBy, func(x sqlparser.Expr) (expr.Expr, error) {
		return planner.Bind(x, acc.scope(), e.scalarQuery)
	}, &exprs, &cols)
	if err != nil {
		return nil, 0, nil, err
	}
	mapFn := func(row types.Row, emit func([]byte, types.Row) error) error {
		if filter != nil {
			ok, err := expr.EvalBool(filter, row)
			if err != nil || !ok {
				return err
			}
		}
		out := make(types.Row, len(exprs))
		for i, ex := range exprs {
			v, err := ex.Eval(row)
			if err != nil {
				return err
			}
			out[i] = v
		}
		return emit([]byte{0}, out)
	}
	reduce := func(key []byte, tagged [][]types.Row, emit func(types.Row) error) error {
		for _, row := range tagged[0] {
			if err := emit(row); err != nil {
				return err
			}
		}
		return nil
	}
	parts, err := e.runJob(JobSpec{
		Name:   "project",
		Inputs: []Input{{Tag: 0, Read: e.reader(acc), Map: mapFn}},
		Reduce: reduce,
		Output: e.tmpPath("project"),
	})
	if err != nil {
		return nil, 0, nil, err
	}
	schema := &types.Schema{Columns: cols}
	out := &rel{parts: parts, schema: schema, quals: make([]string, len(cols)), names: schemaNames(schema)}
	return out, hidden, keys, nil
}

func schemaNames(s *types.Schema) []string {
	out := make([]string, s.Len())
	for i, c := range s.Columns {
		out[i] = strings.ToLower(c.Name)
	}
	return out
}

// aggJob groups and aggregates in one MR job; HAVING and the final
// projection run in the reducer.
func (e *Engine) aggJob(acc *rel, stmt *sqlparser.SelectStmt, items []sqlparser.SelectItem, aggCalls []*sqlparser.FuncExpr) (*rel, int, []sortKey, error) {
	filter, err := e.filterFor(acc, nil)
	if err != nil {
		return nil, 0, nil, err
	}
	// Bind group expressions and aggregate specs over the input.
	groupExprs := make([]expr.Expr, len(stmt.GroupBy))
	groupStrs := make([]string, len(stmt.GroupBy))
	var aggCols []types.Column
	for i, g := range stmt.GroupBy {
		bound, err := planner.Bind(g, acc.scope(), e.scalarQuery)
		if err != nil {
			return nil, 0, nil, err
		}
		groupExprs[i] = bound
		groupStrs[i] = g.String()
		name := fmt.Sprintf("key%d", i)
		if id, ok := g.(*sqlparser.Ident); ok {
			name = strings.ToLower(id.Column())
		}
		aggCols = append(aggCols, types.Column{Name: name, Kind: bound.Kind()})
	}
	specs := make([]expr.AggSpec, len(aggCalls))
	aggStrs := make([]string, len(aggCalls))
	for i, call := range aggCalls {
		kind, _ := expr.AggKindByName(call.Name)
		spec := expr.AggSpec{Kind: kind, Distinct: call.Distinct}
		if call.Star {
			spec.Kind = expr.AggCountStar
		} else {
			if len(call.Args) != 1 {
				return nil, 0, nil, fmt.Errorf("stinger: aggregate %s takes one argument", call.Name)
			}
			arg, err := planner.Bind(call.Args[0], acc.scope(), e.scalarQuery)
			if err == nil {
				spec, err = expr.NewAggSpec(kind, arg, call.Distinct)
			}
			if err != nil {
				return nil, 0, nil, err
			}
		}
		specs[i] = spec
		aggStrs[i] = call.String()
		aggCols = append(aggCols, types.Column{Name: strings.ToLower(call.Name), Kind: spec.ResultKind()})
	}
	aggSchema := &types.Schema{Columns: aggCols}

	var having expr.Expr
	if stmt.Having != nil {
		having, err = planner.BindWithAggregates(stmt.Having, groupStrs, aggStrs, aggSchema, e.scalarQuery)
		if err == nil {
			_, err = expr.Resolve("HAVING", having) // nothing casts to a BOOLEAN
		}
		if err != nil {
			return nil, 0, nil, err
		}
	}
	var exprs []expr.Expr
	var cols []types.Column
	for i, item := range items {
		bound, err := planner.BindWithAggregates(item.Expr, groupStrs, aggStrs, aggSchema, e.scalarQuery)
		if err != nil {
			return nil, 0, nil, err
		}
		exprs = append(exprs, bound)
		name := item.Alias
		if name == "" {
			if id, ok := item.Expr.(*sqlparser.Ident); ok {
				name = id.Column()
			} else {
				name = fmt.Sprintf("column%d", i+1)
			}
		}
		cols = append(cols, types.Column{Name: strings.ToLower(name), Kind: bound.Kind()})
	}
	keys, hidden, err := resolveOrderKeys(items, stmt.OrderBy, func(x sqlparser.Expr) (expr.Expr, error) {
		return planner.BindWithAggregates(x, groupStrs, aggStrs, aggSchema, e.scalarQuery)
	}, &exprs, &cols)
	if err != nil {
		return nil, 0, nil, err
	}

	mapFn := func(row types.Row, emit func([]byte, types.Row) error) error {
		if filter != nil {
			ok, err := expr.EvalBool(filter, row)
			if err != nil || !ok {
				return err
			}
		}
		key := []byte{0}
		for _, g := range groupExprs {
			v, err := g.Eval(row)
			if err != nil {
				return err
			}
			key = types.EncodeDatum(key, v)
		}
		return emit(key, row)
	}
	projectGroup := func(rows []types.Row, emit func(types.Row) error) error {
		aggRow := make(types.Row, len(groupExprs)+len(specs))
		if len(rows) > 0 {
			for i, g := range groupExprs {
				v, err := g.Eval(rows[0])
				if err != nil {
					return err
				}
				aggRow[i] = v
			}
		}
		for si, spec := range specs {
			acc := expr.NewAccumulator(spec)
			for _, row := range rows {
				if spec.Kind == expr.AggCountStar {
					acc.Add(types.NewInt64(1))
					continue
				}
				v, err := spec.Arg.Eval(row)
				if err != nil {
					return err
				}
				acc.Add(v)
			}
			aggRow[len(groupExprs)+si] = acc.Result()
		}
		if having != nil {
			ok, err := expr.EvalBool(having, aggRow)
			if err != nil || !ok {
				return err
			}
		}
		out := make(types.Row, len(exprs))
		for i, ex := range exprs {
			v, err := ex.Eval(aggRow)
			if err != nil {
				return err
			}
			out[i] = v
		}
		return emit(out)
	}
	reduce := func(key []byte, tagged [][]types.Row, emit func(types.Row) error) error {
		return projectGroup(tagged[0], emit)
	}
	parts, err := e.runJob(JobSpec{
		Name:   "aggregate",
		Inputs: []Input{{Tag: 0, Read: e.reader(acc), Map: mapFn}},
		Reduce: reduce,
		Output: e.tmpPath("agg"),
	})
	if err != nil {
		return nil, 0, nil, err
	}
	schema := &types.Schema{Columns: cols}
	out := &rel{parts: parts, schema: schema, quals: make([]string, len(cols)), names: schemaNames(schema)}
	// Scalar aggregate over empty input yields one row.
	if len(groupExprs) == 0 {
		rows, err := e.readAll(parts)
		if err != nil {
			return nil, 0, nil, err
		}
		if len(rows) == 0 {
			var buf []byte
			err := projectGroup(nil, func(r types.Row) error {
				buf = appendSeqRecord(buf, r)
				return nil
			})
			if err != nil {
				return nil, 0, nil, err
			}
			p := e.tmpPath("agg-empty") + "/part-00000"
			if err := writeSeqParts(e.FS, p, buf); err != nil {
				return nil, 0, nil, err
			}
			out.parts = []string{p}
		}
	}
	return out, hidden, keys, nil
}

// sortJob produces a total order through a single reducer (Hive's ORDER
// BY), applying limit/offset and trimming hidden sort columns.
func (e *Engine) sortJob(in *rel, keys []sortKey, limit, offset int64, hidden int) (*rel, error) {
	visible := in.schema.Len() - hidden
	mapFn := func(row types.Row, emit func([]byte, types.Row) error) error {
		return emit(orderedKey(row, keys), row)
	}
	var skipped, emitted int64
	reduce := func(key []byte, tagged [][]types.Row, emit func(types.Row) error) error {
		for _, row := range tagged[0] {
			if skipped < offset {
				skipped++
				continue
			}
			if limit >= 0 && emitted >= limit {
				return nil
			}
			emitted++
			if err := emit(row[:visible]); err != nil {
				return err
			}
		}
		return nil
	}
	parts, err := e.runJob(JobSpec{
		Name:       "order",
		Inputs:     []Input{{Tag: 0, Read: e.reader(in), Map: mapFn}},
		Reduce:     reduce,
		Output:     e.tmpPath("order"),
		NumReduces: 1,
	})
	if err != nil {
		return nil, err
	}
	schema := &types.Schema{Columns: in.schema.Columns[:visible]}
	return &rel{parts: parts, schema: schema, quals: make([]string, visible), names: schemaNames(schema)}, nil
}

// orderedKey renders sort keys as bytes whose lexicographic order matches
// the datum order (per-key descending handled by bit inversion; NULLs
// sort first ascending, last descending, as in the HAWQ executor).
func orderedKey(row types.Row, keys []sortKey) []byte {
	if len(keys) == 0 {
		return []byte{0}
	}
	var out []byte
	for _, k := range keys {
		start := len(out)
		d := row[k.col]
		if d.IsNull() {
			out = append(out, 0x00)
		} else {
			out = append(out, 0x01)
			switch d.K {
			case types.KindInt32, types.KindInt64, types.KindDate, types.KindBool:
				out = binary.BigEndian.AppendUint64(out, uint64(d.I)^(1<<63))
			case types.KindFloat64, types.KindDecimal:
				bits := math.Float64bits(d.Float())
				if bits&(1<<63) != 0 {
					bits = ^bits
				} else {
					bits |= 1 << 63
				}
				out = binary.BigEndian.AppendUint64(out, bits)
			case types.KindString, types.KindBytes:
				out = append(out, d.S...)
				out = append(out, 0x00)
			}
		}
		if k.desc {
			for i := start; i < len(out); i++ {
				out[i] = ^out[i]
			}
		}
	}
	return out
}
