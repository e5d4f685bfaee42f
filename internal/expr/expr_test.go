package expr

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unicode/utf8"

	"hawq/internal/clock"
	"hawq/internal/types"
)

func col(i int, k types.Kind) *ColRef { return &ColRef{Idx: i, K: k} }

func ci(v int64) *Const  { return NewConst(types.NewInt64(v)) }
func cs(s string) *Const { return NewConst(types.NewString(s)) }

func mustEval(t *testing.T, e Expr, row types.Row) types.Datum {
	t.Helper()
	v, err := e.Eval(row)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

func TestArithmeticAndComparison(t *testing.T) {
	row := types.Row{types.NewInt64(10), types.NewInt64(3)}
	a, b := col(0, types.KindInt64), col(1, types.KindInt64)
	if v := mustEval(t, NewBinOp(OpAdd, a, b), row); v.Int() != 13 {
		t.Errorf("10+3 = %v", v)
	}
	if v := mustEval(t, NewBinOp(OpMod, a, b), row); v.Int() != 1 {
		t.Errorf("10%%3 = %v", v)
	}
	if v := mustEval(t, NewBinOp(OpGt, a, b), row); !v.Bool() {
		t.Error("10 > 3 false")
	}
	if v := mustEval(t, NewBinOp(OpEq, a, ci(10)), row); !v.Bool() {
		t.Error("10 = 10 false")
	}
	// NULL propagation.
	nullRow := types.Row{types.Null, types.NewInt64(3)}
	if v := mustEval(t, NewBinOp(OpLt, a, b), nullRow); !v.IsNull() {
		t.Error("NULL < 3 should be NULL")
	}
	if v := mustEval(t, NewBinOp(OpConcat, cs("a"), cs("b")), nil); v.Str() != "ab" {
		t.Errorf("concat = %v", v)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	tr := NewConst(types.NewBool(true))
	fa := NewConst(types.NewBool(false))
	nu := NewConst(types.Null)
	cases := []struct {
		e    Expr
		want string
	}{
		{NewBinOp(OpAnd, tr, nu), "NULL"},
		{NewBinOp(OpAnd, fa, nu), "f"},
		{NewBinOp(OpAnd, nu, fa), "f"},
		{NewBinOp(OpOr, tr, nu), "t"},
		{NewBinOp(OpOr, nu, tr), "t"},
		{NewBinOp(OpOr, fa, nu), "NULL"},
		{&Not{nu}, "NULL"},
		{&Not{fa}, "t"},
	}
	for _, c := range cases {
		if got := mustEval(t, c.e, nil).String(); got != c.want {
			t.Errorf("%s = %s, want %s", c.e, got, c.want)
		}
	}
}

// TestLikeMatching: LIKE as PostgreSQL answers it, '_' one character of
// TEXT and one byte of a BYTEA, a backslash escaping the next character.
func TestLikeMatching(t *testing.T) {
	bs := func(s string) *Const { return NewConst(types.NewBytes([]byte(s))) }
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_y%", false},
		{"", "%", true},
		{"", "_", false},
		{"special requests", "%special%requests%", true},
		{"nothing here", "%special%requests%", false},
		{"forest green metallic", "%green%", true},
		{"abc", "abc%def", false},
		{"aXbXc", "a%b%c", true},
		{"é", "_", true}, {"aé", "a_", true}, {"aé", "a__", false}, {"日本", "__", true},
		{"a%b", `a\%b`, true}, {"a_b", `a\_b`, true}, {"axb", `a\%b`, false}, {"axb", `a\_b`, false},
		{`a\b`, `a\\b`, true}, {"ab", `a\b`, true}, {"100%", `%\%`, true}, {"100", `%\%`, false},
	}
	for _, c := range cases {
		e := &Like{E: cs(c.s), Pattern: c.pat}
		if got := mustEval(t, e, nil).Bool(); got != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
	for _, c := range []struct {
		s, pat string
		want   bool
	}{{"é", "_", false}, {"é", "__", true}, {"aé", "a__", true}} {
		if got := mustEval(t, &Like{E: bs(c.s), Pattern: c.pat}, nil).Bool(); got != c.want {
			t.Errorf("BYTEA %q LIKE %q = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
	neg := &Like{E: cs("abc"), Pattern: "a%", Negate: true}
	if mustEval(t, neg, nil).Bool() {
		t.Error("NOT LIKE failed")
	}
	if v := mustEval(t, &Like{E: NewConst(types.Null), Pattern: "%"}, nil); !v.IsNull() {
		t.Error("NULL LIKE should be NULL")
	}
}

// refLike is LIKE by its definition, for likeMatch to agree with: the
// pattern as tokens (a '%', a '_', a literal character, escaped or not),
// s as characters — runes, or bytes when bytes is set — and the set of
// positions of s each prefix of the tokens can reach.
func refLike(s, pat string, bytes bool) bool {
	// split cuts x into characters, each escape kept with the one after
	// it when esc is set.
	split := func(x string, esc bool) []string {
		var out []string
		for i := 0; i < len(x); {
			j := i
			if esc && x[j] == '\\' && j+1 < len(x) {
				j++
			}
			n := 1
			if !bytes {
				_, n = utf8.DecodeRuneInString(x[j:])
			}
			out = append(out, x[i:j+n])
			i = j + n
		}
		return out
	}
	chars := split(s, false)
	at := make([]bool, len(chars)+1)
	at[0] = true
	for _, tok := range split(pat, true) {
		next := make([]bool, len(chars)+1)
		for i, ok := range at {
			switch {
			case !ok:
			case tok == "%":
				for j := i; j <= len(chars); j++ {
					next[j] = true
				}
			case i == len(chars):
			case tok == "_" || strings.TrimPrefix(tok, "\\") == chars[i]:
				next[i+1] = true
			}
		}
		at = next
	}
	return at[len(chars)]
}

// TestLikeMatchesBacktracking holds likeMatch, and the backtracking scan
// it takes for a pattern with a '_' or an escape, to refLike: the listed
// corner cases, then every string over {a, b, é} up to length four
// against every pattern over {a, é, %, _, \} up to length five that
// NewLike takes, as TEXT and as BYTEA.
func TestLikeMatchesBacktracking(t *testing.T) {
	check := func(s, pat string) {
		for _, bytes := range []bool{false, true} {
			if got, want := likeMatch(s, pat, bytes), refLike(s, pat, bytes); got != want {
				t.Errorf("%q LIKE %q (bytes %v) = %v, by definition %v", s, pat, bytes, got, want)
			}
		}
	}
	for _, c := range [][2]string{
		{"", ""}, {"", "%"}, {"", "%%"}, {"", "_"}, {"", "a"}, {"a", ""},
		{"abc", "%%"}, {"abc", "%c"}, {"abc", "a%"}, {"abc", "%b%"}, {"abc", "%%b%%"},
		{"aaa", "%aa%aa%"}, {"aaaa", "%aa%aa%"}, {"aaa", "aa%aa"}, {"aaa", "a%a%a"},
		{"special packages requests", "%special%requests%"}, {"requests special", "%special%requests%"},
		{"abc", "_b%"}, {"abc", "%_c"}, {"abc", "a_%_"}, {"ab", "%_%_%_%"}, {"xaby", "%a_y"},
		{"a%b", `a\%b`}, {"axb", `a\%b`}, {"a_b", `a\_b`}, {`a\b`, `a\\b`}, {"ab", `a\b`}, {"%", `%\%`},
		{"é", "_"}, {"aé", "a_"}, {"éé", "_"}, {"日本語", "__語"}, {"日本語", "%本_"},
	} {
		check(c[0], c[1])
	}
	var strs, pats []string
	var grow func(cur string, alphabet []string, n int, out *[]string)
	grow = func(cur string, alphabet []string, n int, out *[]string) {
		*out = append(*out, cur)
		if n == 0 {
			return
		}
		for _, c := range alphabet {
			grow(cur+c, alphabet, n-1, out)
		}
	}
	grow("", []string{"a", "b", "é"}, 4, &strs)
	grow("", []string{"a", "é", "%", "_", `\`}, 5, &pats)
	for _, pat := range pats {
		if _, err := NewLike(cs(""), pat, false); err != nil {
			continue
		}
		for _, s := range strs {
			check(s, pat)
		}
	}
}

// TestNewLikeRefuses: the binder's constructor refuses a pattern that
// ends in a lone escape and an operand of a known kind that is not a
// string, and takes a string, a BYTEA and an operand of no known kind.
func TestNewLikeRefuses(t *testing.T) {
	for _, pat := range []string{`\`, `a\`, `a\\\`} {
		if _, err := NewLike(cs("a"), pat, false); err == nil || !strings.Contains(err.Error(), "must not end with escape character") {
			t.Errorf("LIKE '%s': %v, want the lone-escape error", pat, err)
		}
	}
	for _, e := range []Expr{ci(12), NewConst(types.NewDate(1)), NewConst(types.NewFloat64(1.5)),
		NewConst(types.NewDecimal(15, 1)), NewConst(types.NewBool(true))} {
		if _, err := NewLike(e, "%", false); err == nil || !strings.Contains(err.Error(), "operator does not exist") {
			t.Errorf("%s LIKE '%%': %v, want operator does not exist", e, err)
		}
	}
	for _, e := range []Expr{cs("x"), NewConst(types.NewBytes([]byte("x"))), NewConst(types.Null), &Param{K: types.KindNull}} {
		if _, err := NewLike(e, `%\%`, false); err != nil {
			t.Errorf("%s LIKE '%%': %v", e, err)
		}
	}
}

func TestInListAndBetween(t *testing.T) {
	in := &InList{E: ci(2), Items: []Expr{ci(1), ci(2), ci(3)}}
	if !mustEval(t, in, nil).Bool() {
		t.Error("2 IN (1,2,3) false")
	}
	notIn := &InList{E: ci(9), Items: []Expr{ci(1)}, Negate: true}
	if !mustEval(t, notIn, nil).Bool() {
		t.Error("9 NOT IN (1) false")
	}
	// NULL in list: unknown unless matched.
	withNull := &InList{E: ci(9), Items: []Expr{ci(1), NewConst(types.Null)}}
	if v := mustEval(t, withNull, nil); !v.IsNull() {
		t.Errorf("9 IN (1, NULL) = %v, want NULL", v)
	}
	btw := &Between{E: ci(5), Lo: ci(1), Hi: ci(10)}
	if !mustEval(t, btw, nil).Bool() {
		t.Error("5 BETWEEN 1 AND 10 false")
	}
	btwN := &Between{E: ci(50), Lo: ci(1), Hi: ci(10), Negate: true}
	if !mustEval(t, btwN, nil).Bool() {
		t.Error("50 NOT BETWEEN 1 AND 10 false")
	}
}

func TestCaseExpr(t *testing.T) {
	// CASE WHEN $0 > 10 THEN 'big' WHEN $0 > 5 THEN 'mid' ELSE 'small' END
	e := &Case{
		Whens: []When{
			{NewBinOp(OpGt, col(0, types.KindInt64), ci(10)), cs("big")},
			{NewBinOp(OpGt, col(0, types.KindInt64), ci(5)), cs("mid")},
		},
		Else: cs("small"),
	}
	for _, c := range []struct {
		in   int64
		want string
	}{{20, "big"}, {7, "mid"}, {1, "small"}} {
		if got := mustEval(t, e, types.Row{types.NewInt64(c.in)}).Str(); got != c.want {
			t.Errorf("case(%d) = %q, want %q", c.in, got, c.want)
		}
	}
	noElse := &Case{Whens: []When{{NewConst(types.NewBool(false)), cs("x")}}}
	if v := mustEval(t, noElse, nil); !v.IsNull() {
		t.Error("CASE with no match and no ELSE must be NULL")
	}
	if e.Kind() != types.KindString {
		t.Errorf("case kind = %v", e.Kind())
	}
}

func TestIsNullAndCast(t *testing.T) {
	if !mustEval(t, &IsNull{E: NewConst(types.Null)}, nil).Bool() {
		t.Error("NULL IS NULL false")
	}
	if !mustEval(t, &IsNull{E: ci(1), Negate: true}, nil).Bool() {
		t.Error("1 IS NOT NULL false")
	}
	v := mustEval(t, &Cast{E: cs("42"), To: types.KindInt64}, nil)
	if v.Int() != 42 {
		t.Errorf("cast = %v", v)
	}
	if _, err := (&Cast{E: cs("zz"), To: types.KindInt64}).Eval(nil); err == nil {
		t.Error("bad cast must error")
	}
}

func TestFuncCalls(t *testing.T) {
	d := NewConst(types.MustParseDate("1995-03-17"))
	check := func(name string, args []Expr, want string) {
		t.Helper()
		f, err := NewFuncCall(name, args)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustEval(t, f, nil).String(); got != want {
			t.Errorf("%s = %q, want %q", f, got, want)
		}
	}
	check("extract_year", []Expr{d}, "1995")
	check("extract_month", []Expr{d}, "3")
	check("add_months", []Expr{d, ci(3)}, "1995-06-17")
	check("add_years", []Expr{d, ci(1)}, "1996-03-17")
	check("add_days", []Expr{d, ci(20)}, "1995-04-06")
	check("substring", []Expr{cs("hello world"), ci(7), ci(5)}, "world")
	check("substring", []Expr{cs("abc"), ci(2)}, "bc")
	check("upper", []Expr{cs("abc")}, "ABC")
	check("length", []Expr{cs("four")}, "4")
	check("coalesce", []Expr{NewConst(types.Null), ci(5)}, "5")
	check("abs", []Expr{ci(-9)}, "9")
	check("round", []Expr{NewConst(types.NewFloat64(3.14159)), ci(2)}, "3.14")
	if _, err := NewFuncCall("no_such_fn", nil); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := NewFuncCall("upper", nil); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := NewFuncCall("sum", []Expr{ci(1)}); err == nil {
		t.Error("an aggregate resolved as a scalar builtin")
	}
}

// TestCurrentDateUsesBoundClock is the golden test for the clock-driven
// current_date: bound at clock.Sim the result is the simulated date
// (deterministic and replayable), never the wall date, and binding
// copies — the plan's expression is left as it was.
func TestCurrentDateUsesBoundClock(t *testing.T) {
	f, err := NewFuncCall("current_date", nil)
	if err != nil {
		t.Fatal(err)
	}
	sim := clock.NewSim(time.Time{}) // SIGMOD'14 epoch, 2014-06-22 UTC
	bound, err := Bind(f, nil, sim)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, bound, nil).String(); got != "2014-06-22" {
		t.Errorf("current_date under Sim = %q, want %q", got, "2014-06-22")
	}
	sim.Advance(48 * time.Hour)
	if bound, err = Bind(f, nil, sim); err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, bound, nil).String(); got != "2014-06-24" {
		t.Errorf("current_date after Advance = %q, want %q", got, "2014-06-24")
	}

	// An unbound call falls back to the wall clock (the pre-PR behavior).
	//hawqcheck:ignore clockwall asserting the wall-clock fallback itself
	want := types.DateFromTime(time.Now().UTC()).String()
	if got := mustEval(t, f, nil).String(); got != want {
		t.Errorf("unbound current_date = %q, want wall date %q", got, want)
	}

	// Bind reaches FuncCalls nested anywhere in an expression tree.
	nested, err := NewFuncCall("extract_year", []Expr{f})
	if err != nil {
		t.Fatal(err)
	}
	if bound, err = Bind(nested, nil, sim); err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, bound, nil).String(); got != "2014" {
		t.Errorf("extract_year(current_date) under Sim = %q, want 2014", got)
	}
	if nested.Args[0] != Expr(f) {
		t.Error("Bind wrote into the expression it was given")
	}
}

// TestBindCopiesOnlyWhatVaries: an expression with no placeholder and no
// clock builtin comes back as it is, without an allocation; one with a
// placeholder is copied on the way to it, its other operands shared.
func TestBindCopiesOnlyWhatVaries(t *testing.T) {
	plain := &BinOp{Op: OpAnd,
		L: &BinOp{Op: OpLt, L: &ColRef{Idx: 0, K: types.KindInt64}, R: NewConst(types.NewInt64(5))},
		R: &IsNull{E: &ColRef{Idx: 1, K: types.KindString}, Negate: true}}
	if allocs := testing.AllocsPerRun(100, func() {
		if b, err := Bind(plain, nil, nil); err != nil || b != Expr(plain) {
			t.Fatalf("plain expression rebound: %v %v", b, err)
		}
	}); allocs != 0 {
		t.Errorf("binding an expression with nothing to bind allocates %.0f objects", allocs)
	}
	withParam := &BinOp{Op: OpAnd, L: plain.L, R: &BinOp{Op: OpEq, L: &ColRef{Idx: 0, K: types.KindInt64}, R: &Param{Idx: 1, K: types.KindInt64}}}
	b, err := Bind(withParam, []types.Datum{types.Null, types.NewInt64(7)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := b.(*BinOp)
	if got == withParam || got.L != withParam.L || got.R.String() != "($0 = 7)" {
		t.Fatalf("bound %s: copied root %v, shared left %v", got, got != withParam, got.L == withParam.L)
	}
	if _, err := Bind(withParam, []types.Datum{types.Null}, nil); err == nil {
		t.Error("a placeholder past the arguments bound")
	}
	// Bind checks no comparison: the plan's were checked when it was
	// made, and an untyped placeholder's by plan.BindParams on the QD.
	untyped := &BinOp{Op: OpEq, L: &Param{Idx: 0}, R: &Param{Idx: 1}}
	b, err = Bind(untyped, []types.Datum{types.NewInt64(1), types.NewString("x")}, nil)
	if err != nil || Check(b) == nil {
		t.Errorf("$1 = $2 bound to a number and a string: %v, then checked: %v", err, Check(b))
	}
}

// TestBindLikePattern: a LIKE whose pattern is a placeholder prints it,
// is no literal to fold, and binds to the Like of its argument — a
// malformed pattern is NewLike's error, a NULL one is NULL.
func TestBindLikePattern(t *testing.T) {
	l := &Like{E: &ColRef{Idx: 0, K: types.KindString, Name: "s"}, Param: &Param{Idx: 0, K: types.KindString}}
	if got := l.String(); got != "(s LIKE $1)" {
		t.Errorf("String() = %q", got)
	}
	lit := &Like{E: NewConst(types.NewString("abc")), Param: l.Param}
	if f, err := Fold(lit); err != nil || f != Expr(lit) {
		t.Errorf("Fold of 'abc' LIKE $1 = %v, %v", f, err)
	}
	b, err := Bind(l, []types.Datum{types.NewString("a_c")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := b.(*Like); !ok || got.Param != nil || got.Pattern != "a_c" || got == l {
		t.Fatalf("bound to %v", b)
	}
	if got := mustEval(t, b, types.Row{types.NewString("abc")}); !got.Bool() {
		t.Errorf("'abc' LIKE 'a_c' = %v", got)
	}
	if _, err := Bind(l, []types.Datum{types.NewString(`a\`)}, nil); err == nil || !strings.Contains(err.Error(), "escape") {
		t.Errorf("a pattern ending in an escape bound: %v", err)
	}
	if b, err := Bind(l, []types.Datum{types.Null}, nil); err != nil || !mustEval(t, b, types.Row{types.NewString("x")}).IsNull() {
		t.Errorf("LIKE NULL = %v, %v", b, err)
	}
	if _, err := Bind(l, nil, nil); err == nil {
		t.Error("a LIKE pattern with no argument bound")
	}
}

func TestAggregates(t *testing.T) {
	data := []types.Datum{
		types.NewInt64(5), types.NewInt64(1), types.Null, types.NewInt64(5), types.NewInt64(3),
	}
	arg := col(0, types.KindInt64)
	run := func(s AggSpec) types.Datum {
		acc := NewAccumulator(s)
		for _, d := range data {
			acc.Add(d)
		}
		return acc.Result()
	}
	if v := run(AggSpec{Kind: AggCount, Arg: arg}); v.Int() != 4 {
		t.Errorf("count = %v", v)
	}
	if v := run(AggSpec{Kind: AggCountStar}); v.Int() != 5 {
		t.Errorf("count(*) = %v", v)
	}
	if v := run(AggSpec{Kind: AggSum, Arg: arg}); v.Int() != 14 {
		t.Errorf("sum = %v", v)
	}
	if v := run(AggSpec{Kind: AggAvg, Arg: arg}); v.Float() != 3.5 {
		t.Errorf("avg = %v", v)
	}
	if v := run(AggSpec{Kind: AggMin, Arg: arg}); v.Int() != 1 {
		t.Errorf("min = %v", v)
	}
	if v := run(AggSpec{Kind: AggMax, Arg: arg}); v.Int() != 5 {
		t.Errorf("max = %v", v)
	}
	if v := run(AggSpec{Kind: AggCount, Arg: arg, Distinct: true}); v.Int() != 3 {
		t.Errorf("count distinct = %v", v)
	}
	if v := run(AggSpec{Kind: AggSum, Arg: arg, Distinct: true}); v.Int() != 9 {
		t.Errorf("sum distinct = %v", v)
	}
	// Empty inputs.
	if v := NewAccumulator(AggSpec{Kind: AggSum, Arg: arg}).Result(); !v.IsNull() {
		t.Error("sum of empty must be NULL")
	}
	if v := NewAccumulator(AggSpec{Kind: AggCount, Arg: arg}).Result(); v.Int() != 0 {
		t.Error("count of empty must be 0")
	}
	// Decimal sum keeps decimal kind.
	acc := NewAccumulator(AggSpec{Kind: AggSum, Arg: col(0, types.KindDecimal)})
	acc.Add(types.NewDecimal(150, 2))
	acc.Add(types.NewDecimal(25, 2))
	if got := acc.Result().String(); got != "1.75" {
		t.Errorf("decimal sum = %v", got)
	}
}

func TestAggKindByName(t *testing.T) {
	for name, want := range map[string]AggKind{"count": AggCount, "SUM": AggSum, "Avg": AggAvg, "min": AggMin, "max": AggMax} {
		got, ok := AggKindByName(name)
		if !ok || got != want {
			t.Errorf("AggKindByName(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := AggKindByName("median"); ok {
		t.Error("median should not resolve")
	}
}

func TestEvalBool(t *testing.T) {
	if ok, _ := EvalBool(NewConst(types.Null), nil); ok {
		t.Error("NULL predicate must filter")
	}
	if ok, _ := EvalBool(NewConst(types.NewBool(true)), nil); !ok {
		t.Error("true predicate must pass")
	}
}

// Property: LIKE with a pattern equal to the string (no wildcards) always
// matches, and appending "%" keeps matching.
func TestQuickLikeSelfMatch(t *testing.T) {
	f := func(s string) bool {
		clean := ""
		for _, r := range s {
			if r != '%' && r != '_' && r != '\\' {
				clean += string(r)
			}
		}
		return likeMatch(clean, clean, false) && likeMatch(clean, clean+"%", false) && likeMatch(clean, "%"+clean, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBinOpKinds(t *testing.T) {
	a := col(0, types.KindInt64)
	d := col(1, types.KindDecimal)
	f := col(2, types.KindFloat64)
	dt := col(3, types.KindDate)
	cases := []struct {
		e    Expr
		want types.Kind
	}{
		{NewBinOp(OpAdd, a, a), types.KindInt64},
		{NewBinOp(OpMul, a, d), types.KindDecimal},
		{NewBinOp(OpAdd, d, f), types.KindFloat64},
		{NewBinOp(OpDiv, d, d), types.KindFloat64},
		{NewBinOp(OpEq, a, a), types.KindBool},
		{NewBinOp(OpConcat, cs("a"), cs("b")), types.KindString},
		{NewBinOp(OpSub, dt, dt), types.KindInt64},
		{NewBinOp(OpAdd, dt, a), types.KindDate},
		{&Not{NewConst(types.NewBool(true))}, types.KindBool},
		{&Cast{E: a, To: types.KindString}, types.KindString},
		{&IsNull{E: a}, types.KindBool},
		{&Between{E: a, Lo: ci(1), Hi: ci(2)}, types.KindBool},
		{&InList{E: a, Items: []Expr{ci(1)}}, types.KindBool},
		{&Like{E: cs("x"), Pattern: "%"}, types.KindBool},
	}
	for _, c := range cases {
		if got := c.e.Kind(); got != c.want {
			t.Errorf("%s kind = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestExprStringsRender(t *testing.T) {
	// EXPLAIN output relies on every node's String.
	f, _ := NewFuncCall("substring", []Expr{cs("abc"), ci(1), ci(2)})
	exprs := []Expr{
		NewBinOp(OpAnd, NewConst(types.NewBool(true)), NewConst(types.NewBool(false))),
		&Not{NewConst(types.NewBool(true))},
		&Neg{ci(5)},
		&IsNull{E: ci(1), Negate: true},
		&Like{E: cs("x"), Pattern: "a%", Negate: true},
		&InList{E: ci(1), Items: []Expr{ci(2), ci(3)}, Negate: true},
		&Between{E: ci(5), Lo: ci(1), Hi: ci(9)},
		&Case{Whens: []When{{NewConst(types.NewBool(true)), cs("y")}}, Else: cs("n")},
		&Cast{E: ci(1), To: types.KindString},
		f,
		&ColRef{Idx: 3},
	}
	for _, e := range exprs {
		if e.String() == "" {
			t.Errorf("%T renders empty", e)
		}
	}
	if (&ColRef{Idx: 3}).String() != "$3" {
		t.Error("anonymous colref rendering")
	}
}

func TestColRefOutOfRange(t *testing.T) {
	c := col(5, types.KindInt64)
	if _, err := c.Eval(types.Row{types.NewInt64(1)}); err == nil {
		t.Fatal("out-of-range column reference accepted")
	}
}

func TestSimpleCaseOperandForm(t *testing.T) {
	// Simple CASE is lowered by the planner to operand = when; the Case
	// node itself only handles searched form — verify the searched
	// equivalent works for each branch.
	e := &Case{
		Whens: []When{
			{NewBinOp(OpEq, col(0, types.KindString), cs("A")), ci(1)},
			{NewBinOp(OpEq, col(0, types.KindString), cs("B")), ci(2)},
		},
	}
	if v := mustEval(t, e, types.Row{types.NewString("B")}); v.Int() != 2 {
		t.Fatalf("case = %v", v)
	}
	if v := mustEval(t, e, types.Row{types.NewString("Z")}); !v.IsNull() {
		t.Fatalf("no-match case = %v", v)
	}
}
