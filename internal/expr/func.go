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

// builtin is a scalar function's implementation; its signatures are in
// the table (sigs). It is strict, NULL on a NULL argument, unless nulls
// is set: coalesce takes them.
type builtin struct {
	nulls bool
	eval  func(args []types.Datum) (types.Datum, error)
	// evalClock is set instead of eval for builtins whose result depends
	// on the current time (current_date); Bind evaluates it at the
	// executing node's clock, so results are deterministic under
	// clock.Sim.
	evalClock func(c clock.Clock, args []types.Datum) (types.Datum, error)
}

var builtins = map[string]*builtin{
	"extract_year": {eval: func(a []types.Datum) (types.Datum, error) {
		return types.NewInt64(int64(a[0].Year())), nil
	}},
	"extract_month": {eval: func(a []types.Datum) (types.Datum, error) {
		return types.NewInt64(int64(a[0].Time().Month())), nil
	}},
	"extract_day": {eval: func(a []types.Datum) (types.Datum, error) {
		return types.NewInt64(int64(a[0].Time().Day())), nil
	}},
	"add_months": {eval: func(a []types.Datum) (types.Datum, error) {
		return types.DateFromTime(a[0].Time().AddDate(0, int(a[1].Int()), 0)), nil
	}},
	"add_years": {eval: func(a []types.Datum) (types.Datum, error) {
		return types.DateFromTime(a[0].Time().AddDate(int(a[1].Int()), 0, 0)), nil
	}},
	"add_days": {eval: func(a []types.Datum) (types.Datum, error) {
		return types.NewDate(int32(a[0].I + a[1].Int())), nil
	}},
	"date": {eval: func(a []types.Datum) (types.Datum, error) {
		return types.Cast(a[0], types.KindDate)
	}},
	"current_date": {evalClock: func(c clock.Clock, a []types.Datum) (types.Datum, error) {
		return types.DateFromTime(c.Now().UTC()), nil
	}},
	"substring": {eval: func(a []types.Datum) (types.Datum, error) {
		s := a[0].Str()
		from := int(a[1].Int()) - 1 // SQL is 1-based
		if from < 0 {
			from = 0
		}
		if from > len(s) {
			from = len(s)
		}
		end := len(s)
		if len(a) == 3 {
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
	"upper": {eval: func(a []types.Datum) (types.Datum, error) {
		return types.NewString(strings.ToUpper(a[0].Str())), nil
	}},
	"lower": {eval: func(a []types.Datum) (types.Datum, error) {
		return types.NewString(strings.ToLower(a[0].Str())), nil
	}},
	"length": {eval: func(a []types.Datum) (types.Datum, error) {
		return types.NewInt64(int64(len(a[0].Str()))), nil
	}},
	"trim": {eval: func(a []types.Datum) (types.Datum, error) {
		return types.NewString(strings.TrimSpace(a[0].Str())), nil
	}},
	"abs": {eval: func(a []types.Datum) (types.Datum, error) {
		if types.Compare(a[0], types.NewInt64(0)) < 0 {
			return types.Neg(a[0]), nil
		}
		return a[0], nil
	}},
	"round": {eval: func(a []types.Datum) (types.Datum, error) {
		digits := 0
		if len(a) == 2 {
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
	"coalesce": {nulls: true, eval: func(a []types.Datum) (types.Datum, error) {
		for _, d := range a {
			if !d.IsNull() {
				return d, nil
			}
		}
		return types.Null, nil
	}},
}

// NewFuncCall resolves the built-in function name over args through the
// signature table (Resolve), which may cast args in place.
func NewFuncCall(name string, args []Expr) (*FuncCall, error) {
	name = strings.ToLower(name)
	impl := builtins[name]
	if impl == nil {
		return nil, fmt.Errorf("function %s does not exist", name)
	}
	if _, err := Resolve(name, args...); err != nil {
		return nil, err
	}
	return &FuncCall{Name: name, Args: args, impl: impl}, nil
}

// Eval implements Expr.
func (f *FuncCall) Eval(row types.Row) (types.Datum, error) {
	args := make([]types.Datum, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(row)
		if err != nil || v.IsNull() && !f.impl.nulls {
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

// Kind implements Expr: its signature's (sigs).
func (f *FuncCall) Kind() types.Kind { return resultKind(f.Name, f.Args...) }

// String renders the call as SQL-like text for EXPLAIN output.
func (f *FuncCall) String() string {
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(args, ", "))
}
