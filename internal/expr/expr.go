// Package expr implements bound, executable expression trees: the form
// the planner emits after resolving parsed SQL expressions against a
// schema. Expressions evaluate over a types.Row with SQL three-valued
// logic, and the package also provides the aggregate accumulators used by
// the executor's hash-aggregation operators.
package expr

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"hawq/internal/types"
)

// Expr is a bound expression evaluable against a row.
type Expr interface {
	// Eval computes the expression over the row.
	Eval(row types.Row) (types.Datum, error)
	// Kind is the statically determined result kind.
	Kind() types.Kind
	// String renders the expression for EXPLAIN output.
	String() string
}

// ColRef references a column of the input row by position.
type ColRef struct {
	Idx  int
	K    types.Kind
	Name string
}

// Eval implements Expr.
func (c *ColRef) Eval(row types.Row) (types.Datum, error) {
	if c.Idx >= len(row) {
		return types.Null, fmt.Errorf("expr: column %d out of range (row width %d)", c.Idx, len(row))
	}
	return row[c.Idx], nil
}

// Kind implements Expr.
func (c *ColRef) Kind() types.Kind { return c.K }

// String renders the expression as SQL-like text for EXPLAIN output.
func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Idx)
}

// Const is a literal.
type Const struct {
	D types.Datum
}

// NewConst wraps a datum as a constant expression.
func NewConst(d types.Datum) *Const { return &Const{D: d} }

// Eval implements Expr.
func (c *Const) Eval(types.Row) (types.Datum, error) { return c.D, nil }

// Kind implements Expr.
func (c *Const) Kind() types.Kind { return c.D.K }

// String renders the expression as SQL-like text for EXPLAIN output.
func (c *Const) String() string {
	if c.D.K == types.KindString {
		return "'" + c.D.S + "'"
	}
	return c.D.String()
}

// BinOpKind enumerates binary operators.
type BinOpKind uint8

// Binary operators.
const (
	OpAdd BinOpKind = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpConcat
)

var binOpNames = [...]string{"+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=", "AND", "OR", "||"}

// String returns the SQL spelling of the operator.
func (o BinOpKind) String() string { return binOpNames[o] }

// BinOpFromSQL returns the operator the parser spells op ("+", "<>",
// "and", "||", ...), or false when op names none.
func BinOpFromSQL(op string) (BinOpKind, bool) {
	for k, name := range binOpNames {
		if strings.EqualFold(name, op) {
			return BinOpKind(k), true
		}
	}
	return 0, false
}

// IsComparison reports whether the operator yields a boolean from two
// comparable operands.
func (o BinOpKind) IsComparison() bool { return o >= OpEq && o <= OpGe }

// BinOp applies a binary operator.
type BinOp struct {
	Op   BinOpKind
	L, R Expr
}

// NewBinOp builds a binary operation node.
func NewBinOp(op BinOpKind, l, r Expr) *BinOp { return &BinOp{Op: op, L: l, R: r} }

// Kind implements Expr: its signature's (sigs).
func (b *BinOp) Kind() types.Kind { return resultKind(b.Op.String(), b.L, b.R) }

// String renders the expression as SQL-like text for EXPLAIN output.
func (b *BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Eval implements Expr with SQL three-valued logic for AND/OR and
// NULL-propagation elsewhere.
func (b *BinOp) Eval(row types.Row) (types.Datum, error) {
	if b.Op == OpAnd || b.Op == OpOr {
		return b.evalLogical(row)
	}
	l, err := b.L.Eval(row)
	if err != nil {
		return types.Null, err
	}
	r, err := b.R.Eval(row)
	if err != nil {
		return types.Null, err
	}
	if b.Op.IsComparison() {
		if l.IsNull() || r.IsNull() {
			return types.Null, nil
		}
		c := types.Compare(l, r)
		switch b.Op {
		case OpEq:
			return types.NewBool(c == 0), nil
		case OpNe:
			return types.NewBool(c != 0), nil
		case OpLt:
			return types.NewBool(c < 0), nil
		case OpLe:
			return types.NewBool(c <= 0), nil
		case OpGt:
			return types.NewBool(c > 0), nil
		case OpGe:
			return types.NewBool(c >= 0), nil
		}
	}
	switch b.Op {
	case OpAdd:
		return types.Add(l, r), nil
	case OpSub:
		return types.Sub(l, r), nil
	case OpMul:
		return types.Mul(l, r), nil
	case OpDiv:
		return types.Div(l, r), nil
	case OpMod:
		if l.IsNull() || r.IsNull() {
			return types.Null, nil
		}
		if r.Int() == 0 {
			return types.Null, nil
		}
		return types.NewInt64(l.Int() % r.Int()), nil
	case OpConcat:
		if l.IsNull() || r.IsNull() {
			return types.Null, nil
		}
		return types.NewString(l.String() + r.String()), nil
	}
	return types.Null, fmt.Errorf("expr: bad binary op %d", b.Op)
}

func (b *BinOp) evalLogical(row types.Row) (types.Datum, error) {
	l, err := b.L.Eval(row)
	if err != nil {
		return types.Null, err
	}
	// Short-circuit where 3VL permits.
	if b.Op == OpAnd && !l.IsNull() && !l.Bool() {
		return types.NewBool(false), nil
	}
	if b.Op == OpOr && !l.IsNull() && l.Bool() {
		return types.NewBool(true), nil
	}
	r, err := b.R.Eval(row)
	if err != nil {
		return types.Null, err
	}
	if b.Op == OpAnd {
		switch {
		case !r.IsNull() && !r.Bool():
			return types.NewBool(false), nil
		case l.IsNull() || r.IsNull():
			return types.Null, nil
		default:
			return types.NewBool(true), nil
		}
	}
	switch {
	case !r.IsNull() && r.Bool():
		return types.NewBool(true), nil
	case l.IsNull() || r.IsNull():
		return types.Null, nil
	default:
		return types.NewBool(false), nil
	}
}

// Not negates a boolean expression (NULL stays NULL).
type Not struct {
	E Expr
}

// Eval implements Expr.
func (n *Not) Eval(row types.Row) (types.Datum, error) {
	v, err := n.E.Eval(row)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	return types.NewBool(!v.Bool()), nil
}

// Kind implements Expr.
func (n *Not) Kind() types.Kind { return types.KindBool }

// String renders the expression as SQL-like text for EXPLAIN output.
func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// Neg arithmetically negates a numeric expression.
type Neg struct {
	E Expr
}

// Eval implements Expr.
func (n *Neg) Eval(row types.Row) (types.Datum, error) {
	v, err := n.E.Eval(row)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	return types.Neg(v), nil
}

// Kind implements Expr: its signature's (sigs).
func (n *Neg) Kind() types.Kind { return resultKind("-", n.E) }

// String renders the expression as SQL-like text for EXPLAIN output.
func (n *Neg) String() string { return fmt.Sprintf("(-%s)", n.E) }

// IsNull tests for SQL NULL; with Negate it is IS NOT NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

// Eval implements Expr.
func (i *IsNull) Eval(row types.Row) (types.Datum, error) {
	v, err := i.E.Eval(row)
	if err != nil {
		return types.Null, err
	}
	return types.NewBool(v.IsNull() != i.Negate), nil
}

// Kind implements Expr.
func (i *IsNull) Kind() types.Kind { return types.KindBool }

// String renders the expression as SQL-like text for EXPLAIN output.
func (i *IsNull) String() string {
	if i.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", i.E)
	}
	return fmt.Sprintf("(%s IS NULL)", i.E)
}

// Like implements the SQL LIKE predicate: '%' matches any run of
// characters, '_' one character (one byte of a BYTEA), and a backslash
// makes the character after it literal, as in PostgreSQL. NewLike is the
// binder's constructor.
type Like struct {
	E       Expr
	Pattern string
	// Param, when set, is the pattern instead: a generic plan's $n,
	// which Bind replaces, with the node, by the Like of its argument.
	Param  *Param
	Negate bool
}

// NewLike binds "e [NOT] LIKE pattern", refusing what PostgreSQL
// refuses: an operand of a known kind other than TEXT or BYTEA, and a
// pattern that ends in a lone escape.
func NewLike(e Expr, pattern string, negate bool) (*Like, error) {
	if k := e.Kind(); k != types.KindString && k != types.KindBytes && k != types.KindNull {
		return nil, fmt.Errorf("operator does not exist: %s LIKE TEXT", k)
	}
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == '\\' {
			if i++; i == len(pattern) {
				return nil, fmt.Errorf("LIKE pattern must not end with escape character")
			}
		}
	}
	return &Like{E: e, Pattern: pattern, Negate: negate}, nil
}

// Eval implements Expr.
func (l *Like) Eval(row types.Row) (types.Datum, error) {
	if l.Param != nil {
		return l.Param.Eval(row) // unbound: no pattern yet
	}
	v, err := l.E.Eval(row)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	m := likeMatch(v.Str(), l.Pattern, v.K == types.KindBytes)
	return types.NewBool(m != l.Negate), nil
}

// Kind implements Expr.
func (l *Like) Kind() types.Kind { return types.KindBool }

// String renders the expression as SQL-like text for EXPLAIN output.
func (l *Like) String() string {
	op := "LIKE"
	if l.Negate {
		op = "NOT LIKE"
	}
	if l.Param != nil {
		return fmt.Sprintf("(%s %s %s)", l.E, op, l.Param)
	}
	return fmt.Sprintf("(%s %s '%s')", l.E, op, l.Pattern)
}

// likeMatch matches s against a LIKE pattern, by UTF-8 character or, when
// bytes is set (a BYTEA), by byte: the one matcher of the row path and the
// filter kernel. A pattern without '_' or an escape is literal runs
// between '%'s: the first run must start s, the last end it, and each one
// between is found leftmost after the one before — the leftmost match
// leaves the most of s to the runs after it, so no backtracking is
// needed. Any other pattern takes likeBacktrack.
func likeMatch(s, pat string, bytes bool) bool {
	if strings.IndexByte(pat, '_') >= 0 || strings.IndexByte(pat, '\\') >= 0 {
		return likeBacktrack(s, pat, bytes)
	}
	i := strings.IndexByte(pat, '%')
	if i < 0 {
		return s == pat
	}
	if !strings.HasPrefix(s, pat[:i]) {
		return false
	}
	s, pat = s[i:], pat[i+1:]
	for {
		i = strings.IndexByte(pat, '%')
		if i < 0 {
			return strings.HasSuffix(s, pat)
		}
		if i > 0 {
			at := strings.Index(s, pat[:i])
			if at < 0 {
				return false
			}
			s = s[at+i:]
		}
		pat = pat[i+1:]
	}
}

// likeBacktrack is the classic two-pointer wildcard scan, backtracking to
// the last '%': that '%' takes one more character of s and the rest of
// the pattern is tried again from there. A '_', and a '%' growing, step
// over a whole character (a byte when bytes is set); a literal, escaped or
// not, matches byte for byte, which keeps to character boundaries because
// no UTF-8 character starts with a continuation byte.
func likeBacktrack(s, pat string, bytes bool) bool {
	char := func(at int) int {
		if bytes || s[at] < utf8.RuneSelf {
			return 1
		}
		_, n := utf8.DecodeRuneInString(s[at:])
		return n
	}
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		if pi < len(pat) {
			switch c := pat[pi]; {
			case c == '%':
				star, mark = pi, si
				pi++
				continue
			case c == '_':
				si += char(si)
				pi++
				continue
			case c == '\\' && pi+1 < len(pat):
				if pat[pi+1] == s[si] {
					si++
					pi += 2
					continue
				}
			case c == s[si]:
				si++
				pi++
				continue
			}
		}
		if star < 0 {
			return false
		}
		mark += char(mark)
		si, pi = mark, star+1
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// InList implements "e IN (c1, c2, ...)" over constant or computed items.
type InList struct {
	E      Expr
	Items  []Expr
	Negate bool
}

// Eval implements Expr.
func (in *InList) Eval(row types.Row) (types.Datum, error) {
	v, err := in.E.Eval(row)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	sawNull := false
	for _, item := range in.Items {
		iv, err := item.Eval(row)
		if err != nil {
			return types.Null, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if types.Compare(v, iv) == 0 {
			return types.NewBool(!in.Negate), nil
		}
	}
	if sawNull {
		return types.Null, nil
	}
	return types.NewBool(in.Negate), nil
}

// Kind implements Expr.
func (in *InList) Kind() types.Kind { return types.KindBool }

// String renders the expression as SQL-like text for EXPLAIN output.
func (in *InList) String() string {
	items := make([]string, len(in.Items))
	for i, it := range in.Items {
		items[i] = it.String()
	}
	op := "IN"
	if in.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s (%s))", in.E, op, strings.Join(items, ", "))
}

// Between implements "e BETWEEN lo AND hi".
type Between struct {
	E, Lo, Hi Expr
	Negate    bool
}

// Eval implements Expr.
func (b *Between) Eval(row types.Row) (types.Datum, error) {
	v, err := b.E.Eval(row)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	lo, err := b.Lo.Eval(row)
	if err != nil || lo.IsNull() {
		return types.Null, err
	}
	hi, err := b.Hi.Eval(row)
	if err != nil || hi.IsNull() {
		return types.Null, err
	}
	in := types.Compare(v, lo) >= 0 && types.Compare(v, hi) <= 0
	return types.NewBool(in != b.Negate), nil
}

// Kind implements Expr.
func (b *Between) Kind() types.Kind { return types.KindBool }

// String renders the expression as SQL-like text for EXPLAIN output.
func (b *Between) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", b.E, b.Lo, b.Hi)
}

// When is one arm of a CASE expression.
type When struct {
	Cond   Expr
	Result Expr
}

// Case implements searched CASE WHEN ... THEN ... ELSE ... END.
type Case struct {
	Whens []When
	Else  Expr // nil means ELSE NULL
}

// Eval implements Expr.
func (c *Case) Eval(row types.Row) (types.Datum, error) {
	for _, w := range c.Whens {
		v, err := w.Cond.Eval(row)
		if err != nil {
			return types.Null, err
		}
		if !v.IsNull() && v.Bool() {
			return w.Result.Eval(row)
		}
	}
	if c.Else == nil {
		return types.Null, nil
	}
	return c.Else.Eval(row)
}

// Kind implements Expr: the one kind binding brought the results to.
func (c *Case) Kind() types.Kind {
	var buf [8]Expr
	return resultKind("CASE", c.results(buf[:0])...)
}

// results appends the CASE's results to buf, ELSE's last.
func (c *Case) results(buf []Expr) []Expr {
	for _, w := range c.Whens {
		buf = append(buf, w.Result)
	}
	if c.Else != nil {
		buf = append(buf, c.Else)
	}
	return buf
}

// String renders the expression as SQL-like text for EXPLAIN output.
func (c *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Result)
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// Cast converts its operand to a target kind at runtime; to a DECIMAL,
// rounded to Scale digits.
type Cast struct {
	E     Expr
	To    types.Kind
	Scale int8
}

// Eval implements Expr.
func (c *Cast) Eval(row types.Row) (types.Datum, error) {
	v, err := c.E.Eval(row)
	if err != nil {
		return types.Null, err
	}
	return types.CastScale(v, c.To, c.Scale)
}

// Kind implements Expr.
func (c *Cast) Kind() types.Kind { return c.To }

// String renders the expression as SQL-like text for EXPLAIN output; a
// DECIMAL target shows its scale, since two scales are two values.
func (c *Cast) String() string {
	if c.To == types.KindDecimal {
		return fmt.Sprintf("CAST(%s AS DECIMAL(*,%d))", c.E, c.Scale)
	}
	return fmt.Sprintf("CAST(%s AS %s)", c.E, c.To)
}

// EvalBool evaluates a predicate, mapping NULL to false (SQL WHERE
// semantics).
func EvalBool(e Expr, row types.Row) (bool, error) {
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Bool(), nil
}
