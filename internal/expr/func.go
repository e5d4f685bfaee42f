package expr

import (
	"fmt"
	"strings"

	"hawq/internal/clock"
	"hawq/internal/types"
)

// FuncCall invokes a built-in scalar function by name.
type FuncCall struct {
	Name string
	Args []Expr
	// impl is a local binding, deliberately rebuilt after decode by
	// RebindFuncs (§3.1); only Name and Args travel on the wire.
	//hawqcheck:ignore wiresafe impl is rebound by RebindFuncs after decode
	impl *builtin
}

type builtin struct {
	minArgs, maxArgs int
	kind             func(args []Expr) types.Kind
	eval             func(args []types.Datum) (types.Datum, error)
	// evalClock is set instead of eval for builtins whose result depends
	// on the current time (current_date); Bind evaluates it at the
	// executing node's clock, so results are deterministic under
	// clock.Sim.
	evalClock func(c clock.Clock, args []types.Datum) (types.Datum, error)
}

func fixedKind(k types.Kind) func([]Expr) types.Kind {
	return func([]Expr) types.Kind { return k }
}

var builtins = map[string]*builtin{
	"extract_year": {minArgs: 1, maxArgs: 1, kind: fixedKind(types.KindInt64), eval: func(a []types.Datum) (types.Datum, error) {
		if a[0].IsNull() {
			return types.Null, nil
		}
		return types.NewInt64(int64(a[0].Year())), nil
	}},
	"extract_month": {minArgs: 1, maxArgs: 1, kind: fixedKind(types.KindInt64), eval: func(a []types.Datum) (types.Datum, error) {
		if a[0].IsNull() {
			return types.Null, nil
		}
		return types.NewInt64(int64(a[0].Time().Month())), nil
	}},
	"extract_day": {minArgs: 1, maxArgs: 1, kind: fixedKind(types.KindInt64), eval: func(a []types.Datum) (types.Datum, error) {
		if a[0].IsNull() {
			return types.Null, nil
		}
		return types.NewInt64(int64(a[0].Time().Day())), nil
	}},
	"add_months": {minArgs: 2, maxArgs: 2, kind: fixedKind(types.KindDate), eval: func(a []types.Datum) (types.Datum, error) {
		if a[0].IsNull() || a[1].IsNull() {
			return types.Null, nil
		}
		t := a[0].Time().AddDate(0, int(a[1].Int()), 0)
		return types.DateFromTime(t), nil
	}},
	"add_years": {minArgs: 2, maxArgs: 2, kind: fixedKind(types.KindDate), eval: func(a []types.Datum) (types.Datum, error) {
		if a[0].IsNull() || a[1].IsNull() {
			return types.Null, nil
		}
		t := a[0].Time().AddDate(int(a[1].Int()), 0, 0)
		return types.DateFromTime(t), nil
	}},
	"add_days": {minArgs: 2, maxArgs: 2, kind: fixedKind(types.KindDate), eval: func(a []types.Datum) (types.Datum, error) {
		if a[0].IsNull() || a[1].IsNull() {
			return types.Null, nil
		}
		return types.NewDate(int32(a[0].I + a[1].Int())), nil
	}},
	"date": {minArgs: 1, maxArgs: 1, kind: fixedKind(types.KindDate), eval: func(a []types.Datum) (types.Datum, error) {
		if a[0].IsNull() {
			return types.Null, nil
		}
		return types.Cast(a[0], types.KindDate)
	}},
	"current_date": {minArgs: 0, maxArgs: 0, kind: fixedKind(types.KindDate),
		evalClock: func(c clock.Clock, a []types.Datum) (types.Datum, error) {
			return types.DateFromTime(c.Now().UTC()), nil
		}},
	"substring": {minArgs: 2, maxArgs: 3, kind: fixedKind(types.KindString), eval: func(a []types.Datum) (types.Datum, error) {
		if a[0].IsNull() || a[1].IsNull() {
			return types.Null, nil
		}
		s := a[0].Str()
		from := int(a[1].Int()) - 1 // SQL is 1-based
		if from < 0 {
			from = 0
		}
		if from > len(s) {
			from = len(s)
		}
		end := len(s)
		if len(a) == 3 && !a[2].IsNull() {
			end = from + int(a[2].Int())
			if end > len(s) {
				end = len(s)
			}
			if end < from {
				end = from
			}
		}
		return types.NewString(s[from:end]), nil
	}},
	"upper": {minArgs: 1, maxArgs: 1, kind: fixedKind(types.KindString), eval: func(a []types.Datum) (types.Datum, error) {
		if a[0].IsNull() {
			return types.Null, nil
		}
		return types.NewString(strings.ToUpper(a[0].Str())), nil
	}},
	"lower": {minArgs: 1, maxArgs: 1, kind: fixedKind(types.KindString), eval: func(a []types.Datum) (types.Datum, error) {
		if a[0].IsNull() {
			return types.Null, nil
		}
		return types.NewString(strings.ToLower(a[0].Str())), nil
	}},
	"length": {minArgs: 1, maxArgs: 1, kind: fixedKind(types.KindInt64), eval: func(a []types.Datum) (types.Datum, error) {
		if a[0].IsNull() {
			return types.Null, nil
		}
		return types.NewInt64(int64(len(a[0].Str()))), nil
	}},
	"trim": {minArgs: 1, maxArgs: 1, kind: fixedKind(types.KindString), eval: func(a []types.Datum) (types.Datum, error) {
		if a[0].IsNull() {
			return types.Null, nil
		}
		return types.NewString(strings.TrimSpace(a[0].Str())), nil
	}},
	"abs": {minArgs: 1, maxArgs: 1, kind: func(args []Expr) types.Kind { return args[0].Kind() }, eval: func(a []types.Datum) (types.Datum, error) {
		d := a[0]
		if d.IsNull() {
			return types.Null, nil
		}
		if types.Compare(d, types.NewInt64(0)) < 0 {
			return types.Neg(d), nil
		}
		return d, nil
	}},
	"round": {minArgs: 1, maxArgs: 2, kind: fixedKind(types.KindFloat64), eval: func(a []types.Datum) (types.Datum, error) {
		if a[0].IsNull() {
			return types.Null, nil
		}
		digits := 0
		if len(a) == 2 && !a[1].IsNull() {
			digits = int(a[1].Int())
		}
		mult := 1.0
		for i := 0; i < digits; i++ {
			mult *= 10
		}
		v := a[0].Float() * mult
		if v >= 0 {
			v = float64(int64(v + 0.5))
		} else {
			v = float64(int64(v - 0.5))
		}
		return types.NewFloat64(v / mult), nil
	}},
	"coalesce": {minArgs: 1, maxArgs: 16, kind: func(args []Expr) types.Kind { return args[0].Kind() }, eval: func(a []types.Datum) (types.Datum, error) {
		for _, d := range a {
			if !d.IsNull() {
				return d, nil
			}
		}
		return types.Null, nil
	}},
}

// NewFuncCall resolves a built-in function by name.
func NewFuncCall(name string, args []Expr) (*FuncCall, error) {
	name = strings.ToLower(name)
	impl, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("expr: unknown function %s", name)
	}
	if len(args) < impl.minArgs || len(args) > impl.maxArgs {
		return nil, fmt.Errorf("expr: %s takes %d..%d args, got %d", name, impl.minArgs, impl.maxArgs, len(args))
	}
	return &FuncCall{Name: name, Args: args, impl: impl}, nil
}

// IsBuiltinFunc reports whether name resolves to a scalar built-in.
func IsBuiltinFunc(name string) bool {
	_, ok := builtins[strings.ToLower(name)]
	return ok
}

// Eval implements Expr.
func (f *FuncCall) Eval(row types.Row) (types.Datum, error) {
	args := make([]types.Datum, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(row)
		if err != nil {
			return types.Null, err
		}
		args[i] = v
	}
	if f.impl.evalClock != nil {
		// Unbound (see Bind): the wall clock.
		return f.impl.evalClock(clock.Default(nil), args)
	}
	return f.impl.eval(args)
}

// Kind implements Expr.
func (f *FuncCall) Kind() types.Kind { return f.impl.kind(f.Args) }

// String renders the call as SQL-like text for EXPLAIN output.
func (f *FuncCall) String() string {
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(args, ", "))
}
