package sqlparser

import (
	"fmt"
	"strings"
)

// ParamExpr is a positional parameter placeholder $n (1-based). It is
// only meaningful inside a statement prepared with PREPARE (or the wire
// Parse message); the planner binds it to a value — or to an
// execution-time expr.Param in a cached generic plan — at EXECUTE time.
type ParamExpr struct {
	Idx int // 1-based, as written
}

func (*ParamExpr) expr() {}

// String renders the node back to SQL text.
func (p *ParamExpr) String() string { return fmt.Sprintf("$%d", p.Idx) }

// PrepareStmt is PREPARE name AS <statement>.
type PrepareStmt struct {
	Name string
	Stmt Statement
}

func (*PrepareStmt) stmt() {}

// String renders the node back to SQL text.
func (p *PrepareStmt) String() string { return fmt.Sprintf("PREPARE %s AS %s", p.Name, p.Stmt) }

// ExecuteStmt is EXECUTE name [(arg, ...)].
type ExecuteStmt struct {
	Name string
	Args []Expr
}

func (*ExecuteStmt) stmt() {}

// String renders the node back to SQL text.
func (e *ExecuteStmt) String() string {
	if len(e.Args) == 0 {
		return "EXECUTE " + e.Name
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("EXECUTE %s (%s)", e.Name, strings.Join(args, ", "))
}

// DeallocateStmt is DEALLOCATE name or DEALLOCATE ALL.
type DeallocateStmt struct {
	Name string
	All  bool
}

func (*DeallocateStmt) stmt() {}

// String renders the node back to SQL text.
func (d *DeallocateStmt) String() string {
	if d.All {
		return "DEALLOCATE ALL"
	}
	return "DEALLOCATE " + d.Name
}

func (p *parser) parsePrepare() (Statement, error) {
	p.next()
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("as"); err != nil {
		return nil, err
	}
	inner, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return NewPrepare(name, inner)
}

// NewPrepare makes the PREPARE of inner under name, refusing what
// cannot be prepared: a PREPARE, EXECUTE or DEALLOCATE, and
// placeholders that are not $1 to $n.
func NewPrepare(name string, inner Statement) (*PrepareStmt, error) {
	switch inner.(type) {
	case *PrepareStmt, *ExecuteStmt, *DeallocateStmt:
		return nil, fmt.Errorf("sql: cannot PREPARE a %T", inner)
	}
	if err := CheckParams(inner); err != nil {
		return nil, err
	}
	return &PrepareStmt{Name: name, Stmt: inner}, nil
}

func (p *parser) parseExecute() (Statement, error) {
	p.next()
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	e := &ExecuteStmt{Name: name}
	if p.matchOp("(") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			e.Args = append(e.Args, a)
			if !p.matchOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (p *parser) parseDeallocate() (Statement, error) {
	p.next()
	p.matchKw("prepare")
	if p.matchKw("all") {
		return &DeallocateStmt{All: true}, nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DeallocateStmt{Name: name}, nil
}

// MaxParam returns the highest $n placeholder index appearing anywhere in
// the statement (0 when the statement has none).
func MaxParam(s Statement) int {
	max := 0
	WalkStatement(s, func(e Expr) {
		if pe, ok := e.(*ParamExpr); ok && pe.Idx > max {
			max = pe.Idx
		}
	})
	return max
}

// CheckParams validates that a prepared statement's placeholders are
// well-formed: indices start at $1 and are contiguous.
func CheckParams(s Statement) error {
	seen, max := map[int]bool{}, MaxParam(s)
	WalkStatement(s, func(e Expr) {
		if pe, ok := e.(*ParamExpr); ok {
			seen[pe.Idx] = true
		}
	})
	for i := 1; i <= max; i++ {
		if !seen[i] {
			return fmt.Errorf("sql: prepared statement uses $%d but not $%d", max, i)
		}
	}
	if seen[0] {
		return fmt.Errorf("sql: parameter indices start at $1")
	}
	return nil
}

// WalkStatement visits every expression in the statement, including
// subqueries, in syntax order.
func WalkStatement(s Statement, fn func(Expr)) {
	switch v := s.(type) {
	case *SelectStmt:
		walkSelect(v, fn)
	case *InsertStmt:
		for _, row := range v.Rows {
			for _, e := range row {
				walkExpr(e, fn)
			}
		}
		if v.Select != nil {
			walkSelect(v.Select, fn)
		}
	case *UpdateStmt:
		for _, sc := range v.Set {
			walkExpr(sc.Value, fn)
		}
		walkExpr(v.Where, fn)
	case *DeleteStmt:
		walkExpr(v.Where, fn)
	case *ExplainStmt:
		WalkStatement(v.Stmt, fn)
	case *PrepareStmt:
		WalkStatement(v.Stmt, fn)
	case *ExecuteStmt:
		for _, e := range v.Args {
			walkExpr(e, fn)
		}
	}
}

func walkSelect(s *SelectStmt, fn func(Expr)) {
	if s == nil {
		return
	}
	for _, p := range s.Projections {
		walkExpr(p.Expr, fn)
	}
	for _, f := range s.From {
		walkTableRef(f, fn)
	}
	walkExpr(s.Where, fn)
	for _, g := range s.GroupBy {
		walkExpr(g, fn)
	}
	walkExpr(s.Having, fn)
	for _, o := range s.OrderBy {
		walkExpr(o.Expr, fn)
	}
}

func walkTableRef(t TableRef, fn func(Expr)) {
	switch v := t.(type) {
	case *Join:
		walkTableRef(v.Left, fn)
		walkTableRef(v.Right, fn)
		walkExpr(v.On, fn)
	case *SubqueryRef:
		walkSelect(v.Select, fn)
	}
}

func walkExpr(e Expr, fn func(Expr)) {
	Inspect(e, func(x Expr) bool {
		fn(x)
		switch v := x.(type) {
		case *InExpr:
			walkSelect(v.Sub, fn)
		case *ExistsExpr:
			walkSelect(v.Sub, fn)
		case *SubqueryExpr:
			walkSelect(v.Sub, fn)
		}
		return true
	})
}

// Inspect calls fn on e and, while fn returns true, on every expression
// below it in the same query block: a subquery's SELECT is not entered.
func Inspect(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch v := e.(type) {
	case *BinExpr:
		Inspect(v.L, fn)
		Inspect(v.R, fn)
	case *UnExpr:
		Inspect(v.E, fn)
	case *FuncExpr:
		for _, a := range v.Args {
			Inspect(a, fn)
		}
	case *CaseExpr:
		Inspect(v.Operand, fn)
		for _, w := range v.Whens {
			Inspect(w.Cond, fn)
			Inspect(w.Result, fn)
		}
		Inspect(v.Else, fn)
	case *CastExpr:
		Inspect(v.E, fn)
	case *IsNullExpr:
		Inspect(v.E, fn)
	case *LikeExpr:
		Inspect(v.E, fn)
		Inspect(v.Pattern, fn)
	case *InExpr:
		Inspect(v.E, fn)
		for _, it := range v.List {
			Inspect(it, fn)
		}
	case *BetweenExpr:
		Inspect(v.E, fn)
		Inspect(v.Lo, fn)
		Inspect(v.Hi, fn)
	case *ExtractExpr:
		Inspect(v.E, fn)
	}
}

// Tables calls add with the lower-cased name of every table s reads, in
// any of its blocks, in the order they are written; a table read twice
// is added twice.
func Tables(s *SelectStmt, add func(name string)) {
	sub := func(e Expr) bool {
		switch v := e.(type) {
		case *InExpr:
			if v.Sub != nil {
				Tables(v.Sub, add)
			}
		case *ExistsExpr:
			Tables(v.Sub, add)
		case *SubqueryExpr:
			Tables(v.Sub, add)
		}
		return true
	}
	var ref func(TableRef)
	ref = func(t TableRef) {
		switch v := t.(type) {
		case *TableName:
			add(strings.ToLower(v.Name))
		case *SubqueryRef:
			Tables(v.Select, add)
		case *Join:
			ref(v.Left)
			ref(v.Right)
			Inspect(v.On, sub)
		}
	}
	for _, r := range s.From {
		ref(r)
	}
	for _, p := range s.Projections {
		Inspect(p.Expr, sub)
	}
	Inspect(s.Where, sub)
	Inspect(s.Having, sub)
}
