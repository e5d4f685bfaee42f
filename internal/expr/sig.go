package expr

import (
	"fmt"
	"slices"
	"strings"

	"hawq/internal/types"
)

// sig is one signature of the table: the kinds an operator, builtin,
// aggregate or clause takes, a trailing kindAny repeating, and the kind
// it gives; lower names the builtin a DATE ± INTERVAL becomes.
type sig struct {
	args  []types.Kind
	out   types.Kind
	lower string
}

// Kinds the table names and no datum holds: kindAny is the one kind all
// such arguments are brought to and the result (coalesce, CASE, min);
// kindOrdered any kind the other such orders against (types.Comparable),
// uncast (a comparison); then an INTERVAL literal by unit (Interval).
const (
	kindAny types.Kind = 100 + iota
	kindOrdered
	kindDays
)

// sigs is the signature table: every operator by its SQL spelling (a
// unary minus is "-" of one argument), builtin, aggregate and boolean
// clause. Resolve picks from it as a plan is bound, and a node's Kind is
// the result of the signature its operands' kinds meet; nothing else
// decides a kind (DESIGN.md, "Typing: one signature table").
var sigs = map[string][]sig{}

// fixedOut is the kind of each name all of whose signatures give one
// kind, whatever the operands: a comparison's, AND's, upper's.
var fixedOut = map[string]types.Kind{}

// exactSigs is, for each name none of whose signatures is polymorphic, the
// first signature taking up to three kinds as they are: what match would
// pick for those kinds, found without a search (arithmetic's 20).
var exactSigs = map[exactKey]sig{}

type exactKey struct {
	name string
	n    int
	ks   [3]types.Kind
}

// keyOf is the exact key of name over kinds ks, if there is one.
func keyOf(name string, ks []types.Kind) (exactKey, bool) {
	key := exactKey{name: name, n: len(ks)}
	copy(key.ks[:], ks)
	return key, len(ks) <= len(key.ks)
}

// ladder orders the numerics by width: each widens implicitly to those
// after it, as PostgreSQL's int4 → int8 → numeric → float8.
var ladder = []types.Kind{types.KindInt32, types.KindInt64, types.KindDecimal, types.KindFloat64}

func init() {
	const (
		boolean, i4, i8, dec  = types.KindBool, types.KindInt32, types.KindInt64, types.KindDecimal
		f8, text, date, bytea = types.KindFloat64, types.KindString, types.KindDate, types.KindBytes
	)
	type ks = []types.Kind
	add := func(out types.Kind, args ks, names ...string) {
		for _, name := range names {
			sigs[name] = append(sigs[name], sig{args: args, out: out})
		}
	}
	add(boolean, ks{boolean, boolean}, "AND", "OR")
	add(boolean, ks{boolean}, "NOT", "WHERE", "HAVING", "JOIN/ON", "CASE/WHEN")
	add(boolean, ks{kindOrdered, kindOrdered}, binOpNames[OpEq:OpGe+1]...)
	// Every pair of numerics, BIGINT's first, so that two untyped $n are
	// BIGINT: the wider operand's kind (an integer's a BIGINT), as
	// types.Add computes it; a quotient with a DECIMAL is a DOUBLE.
	nums := ks{i8, i4, dec, f8}
	for _, l := range nums {
		for _, r := range nums {
			wide, quot := ladder[max(slices.Index(ladder, l), slices.Index(ladder, r), 1)], f8
			if wide != dec {
				quot = wide
			}
			add(wide, ks{l, r}, "+", "-", "*")
			add(quot, ks{l, r}, "/")
			if wide == i8 {
				add(i8, ks{l, r}, "%")
			}
		}
		add(l, ks{l}, "-", "abs")
		add(ladder[max(slices.Index(ladder, l), 1)], ks{l}, "sum")
		add(f8, ks{l}, "avg")
	}
	add(date, ks{date, i8}, "+", "-", "add_days", "add_months", "add_years")
	add(i8, ks{date, date}, "-")
	for i, fn := range []string{"add_days", "add_months", "add_years"} {
		for _, op := range []string{"+", "-"} {
			sigs[op] = append(sigs[op], sig{args: ks{date, kindDays + types.Kind(i)}, out: date, lower: fn})
		}
	}
	add(text, ks{text, text}, "||")
	add(text, ks{text, kindAny}, "||")
	add(text, ks{kindAny, text}, "||")
	add(boolean, ks{text, text}, "LIKE")
	add(boolean, ks{bytea, bytea}, "LIKE")
	add(boolean, ks{bytea, text}, "LIKE")
	add(i8, ks{date}, "extract_year", "extract_month", "extract_day")
	add(date, ks{text}, "date")
	add(date, ks{date}, "date")
	add(date, nil, "current_date")
	add(text, ks{text, i8}, "substring")
	add(text, ks{text, i8, i8}, "substring")
	add(text, ks{text}, "upper", "lower", "trim")
	add(i8, ks{text}, "length")
	add(i8, ks{bytea}, "length")
	add(f8, ks{f8}, "round")
	add(f8, ks{f8, i8}, "round")
	add(kindAny, ks{kindAny}, "coalesce", "CASE", "min", "max")
	add(i8, ks{kindAny}, "count")
	add(i8, nil, "count(*)")
	poly := func(s sig) bool { return slices.Contains(s.args, kindAny) || slices.Contains(s.args, kindOrdered) }
	for name, list := range sigs {
		if !slices.ContainsFunc(list, func(s sig) bool { return s.out != list[0].out || s.out == kindAny }) {
			fixedOut[name] = list[0].out
		}
		for _, s := range list {
			key, ok := keyOf(name, s.args)
			if _, dup := exactSigs[key]; ok && !dup && !slices.ContainsFunc(list, poly) {
				exactSigs[key] = s
			}
		}
	}
}

// implicit reports whether a value of kind k meets a signature's kind to
// unasked: a numeric up the ladder, and a string literal (lit) to a DATE.
// An untyped $n meets every kind (Resolve).
func implicit(k, to types.Kind, lit bool) bool {
	if lit && k == types.KindString {
		return to == types.KindDate
	}
	from := slices.Index(ladder, k)
	return from >= 0 && slices.Index(ladder, to) > from
}

// fit is how s meets arguments of kinds ks, bit i of lits set where
// argument i is a string literal: ok, at what cost — two per implicit
// cast, one per untyped argument whose kind no other argument has — and
// the kind it gives. want, when not nil, gets the kind each argument
// takes. clash names two kinds no one kind of a kindAny list holds. exact
// admits no implicit cast: a bound node meets its signature so.
func fit(s sig, ks []types.Kind, lits uint64, exact bool, want []types.Kind) (cost int, out types.Kind, clash [2]types.Kind, ok bool) {
	n := len(s.args)
	if len(ks) != n && (n == 0 || s.args[n-1] != kindAny || len(ks) < n) {
		return 0, 0, clash, false
	}
	at := func(i int) types.Kind { return s.args[min(i, n-1)] }
	lit := func(i int) bool { return lits&(1<<i) != 0 }
	// poly is the known kind the polymorphic arguments share: a kindAny
	// list's widest, a kindOrdered pair's first not a string literal.
	poly, polyLit := types.KindNull, false
	for i, k := range ks {
		switch p := at(i); {
		case p != kindAny && p != kindOrdered || k == types.KindNull:
		case poly == types.KindNull || p == kindOrdered && polyLit && !lit(i) || p == kindAny && !exact && implicit(poly, k, polyLit):
			poly, polyLit = k, lit(i)
		}
	}
	for i, k := range ks {
		t := at(i)
		switch {
		case t == kindOrdered && types.Comparable(poly, k):
			t = k // compared as it is
		case t == kindAny || t == kindOrdered:
			t = poly
		}
		switch {
		case k == t || t == types.KindNull:
		case k == types.KindNull:
			if !slices.Contains(ks, t) {
				cost++
			}
		case !exact && implicit(k, t, lit(i)):
			cost += 2
		case at(i) == kindAny:
			return 0, 0, [2]types.Kind{poly, k}, false
		default:
			return 0, 0, clash, false
		}
		if want != nil {
			want[i] = t
		}
	}
	if out = s.out; out == kindAny {
		out = poly
	}
	return cost, out, clash, true
}

// kindsOf appends the kinds of args to ks.
func kindsOf(args []Expr, ks []types.Kind) []types.Kind {
	for _, a := range args {
		ks = append(ks, a.Kind())
	}
	return ks
}

// match picks name's signature over args, of kinds ks: the one of least
// cost (fit), the first listed of those, and the kind it gives; or what
// refused args, in PostgreSQL's words. want as fit's.
func match(name string, args []Expr, ks []types.Kind, exact bool, want []types.Kind) (best sig, out types.Kind, err error) {
	if key, ok := keyOf(name, ks); ok {
		if s, hit := exactSigs[key]; hit {
			copy(want, ks)
			return s, s.out, nil
		}
	}
	lits := uint64(0)
	for i, a := range args {
		if _, isConst := a.(*Const); isConst && ks[i] == types.KindString && i < 64 {
			lits |= 1 << i
		}
	}
	found, bestCost := false, 0
	var clash [2]types.Kind
	for _, s := range sigs[name] {
		c, o, cl, ok := fit(s, ks, lits, exact, nil)
		if ok && (!found || c < bestCost) {
			if best, bestCost, out, found = s, c, o, true; c == 0 {
				break // none costs less, and the first listed wins
			}
		}
		if cl[1] != 0 {
			clash = cl
		}
	}
	if found {
		if want != nil {
			fit(best, ks, lits, exact, want)
		}
		return best, out, nil
	}
	names := make([]string, len(ks))
	for i, k := range ks {
		if names[i] = k.String(); k >= kindDays {
			names[i] = "INTERVAL"
		}
	}
	first := types.KindNull
	if all := sigs[name]; len(all) > 0 && len(all[0].args) > 0 {
		first = all[0].args[0]
	}
	switch {
	case clash[1] != 0:
		return best, 0, fmt.Errorf("%s types %s and %s cannot be matched", strings.ToUpper(name), clash[0], clash[1])
	case first == kindOrdered:
		return best, 0, fmt.Errorf("cannot compare %s with %s in (%s %s %s)", names[0], names[1], args[0], name, args[1])
	case first == types.KindBool:
		i := max(0, slices.IndexFunc(ks, func(k types.Kind) bool { return k != types.KindBool }))
		return best, 0, fmt.Errorf("argument of %s must be type boolean, not type %s", name, names[i])
	case name[0] >= 'a' && name[0] <= 'z':
		return best, 0, fmt.Errorf("function %s(%s) does not exist", name, strings.Join(names, ", "))
	}
	// An operator, between its operands or before its one.
	return best, 0, fmt.Errorf("operator does not exist: %s", strings.Join(slices.Insert(names, max(len(names)-1, 0), name), " "))
}

// resultKind is the kind name's signature gives over args: the one
// binding picked, whose casts it made, so that args meet it again;
// KindNull when none does. A fixed kind needs no look at args.
func resultKind(name string, args ...Expr) types.Kind {
	if k, ok := fixedOut[name]; ok {
		return k
	}
	var buf [8]types.Kind
	if _, out, err := match(name, args, kindsOf(args, buf[:0]), false, nil); err == nil {
		return out
	}
	return types.KindNull
}

// Resolve finds the signature of name — an operator by its SQL spelling,
// a builtin, an aggregate or a boolean clause (WHERE, HAVING, JOIN/ON,
// CASE/WHEN) — that admits args, and returns args as it takes them, in
// place: each implicit cast it picked inserted (a constant's made at
// once) and each untyped $n given its kind. What none admits is refused.
func Resolve(name string, args ...Expr) ([]Expr, error) {
	_, err := resolve(name, args)
	return args, err
}

func resolve(name string, args []Expr) (sig, error) {
	var buf, wbuf [8]types.Kind
	ks, want := kindsOf(args, buf[:0]), append(wbuf[:0], make([]types.Kind, len(args))...)
	best, _, err := match(name, args, ks, false, want)
	for i, a := range args {
		switch k := ks[i]; {
		case err != nil || want[i] == k || want[i] == types.KindNull:
		case k == types.KindNull: // NULL is of every kind; a $n takes one
			if p, ok := a.(*Param); ok {
				p.K = want[i] // the statement's one $n: every occurrence's
			}
		default:
			args[i], err = Fold(&Cast{E: a, To: want[i]})
		}
	}
	return best, err
}

// Apply resolves the operator name (its SQL spelling, a keyword in upper
// case) over args and builds its node; a DATE ± INTERVAL is the builtin
// its signature names.
func Apply(name string, args ...Expr) (Expr, error) {
	s, err := resolve(name, args)
	switch {
	case err != nil:
		return nil, err
	case s.lower != "":
		n := args[1].(*Const).D.I
		if name == "-" {
			n = -n
		}
		return NewFuncCall(s.lower, []Expr{args[0], NewConst(types.NewInt64(n))})
	case name == "NOT":
		return &Not{E: args[0]}, nil
	case len(args) == 1:
		return &Neg{E: args[0]}, nil
	}
	return &BinOp{Op: BinOpKind(slices.Index(binOpNames[:], name)), L: args[0], R: args[1]}, nil
}

// Interval is an INTERVAL literal of n units (day, month or year): an
// operand only DATE ± takes.
func Interval(unit string, n int64) (Expr, error) {
	i := slices.Index([]string{"day", "month", "year"}, strings.ToLower(unit))
	if i < 0 {
		return nil, fmt.Errorf("interval unit %q unsupported", unit)
	}
	return &Const{D: types.Datum{K: kindDays + types.Kind(i), I: n}}, nil
}

// Check reports an error when x, by its operands' kinds now, meets no
// signature exactly. The binder made every node meet one; the planner
// asks again of each once a generic plan's placeholders have their final
// kinds, and BindParams of a bound copy where a kind is the argument's.
// An operand of unknown kind meets every signature. Only x itself is
// looked at, not what is under it.
func Check(x Expr) (err error) {
	var buf [8]types.Kind
	use := func(name string, args ...Expr) {
		if err == nil {
			_, _, err = match(name, args, kindsOf(args, buf[:0]), true, nil)
		}
	}
	switch v := x.(type) {
	case *BinOp:
		use(v.Op.String(), v.L, v.R)
	case *Not:
		use("NOT", v.E)
	case *Neg:
		use("-", v.E)
	case *FuncCall:
		use(v.Name, v.Args...)
	case *Between:
		use("<=", v.E, v.Lo)
		use("<=", v.E, v.Hi)
	case *InList:
		for _, item := range v.Items {
			use("=", v.E, item)
		}
	case *Case:
		for _, w := range v.Whens {
			use("CASE/WHEN", w.Cond)
		}
		use("CASE", v.results(nil)...)
	}
	return err
}
