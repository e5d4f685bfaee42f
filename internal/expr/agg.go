package expr

import (
	"fmt"
	"slices"
	"strings"

	"hawq/internal/types"
)

// AggKind enumerates the aggregate functions.
type AggKind uint8

// Aggregate functions.
const (
	AggCount AggKind = iota // COUNT(expr): non-null inputs
	AggCountStar
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = [...]string{"count", "count(*)", "sum", "avg", "min", "max"}

// String returns the SQL name of the aggregate.
func (k AggKind) String() string { return aggNames[k] }

// AggKindByName resolves an aggregate function name; ok is false for
// non-aggregates.
func AggKindByName(name string) (AggKind, bool) {
	switch strings.ToLower(name) {
	case "count":
		return AggCount, true
	case "sum":
		return AggSum, true
	case "avg":
		return AggAvg, true
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	}
	return 0, false
}

// AggSpec describes one aggregate in a query: the function, its argument
// expression (nil for COUNT(*)), and the DISTINCT flag.
type AggSpec struct {
	Kind     AggKind
	Arg      Expr
	Distinct bool
}

// NewAggSpec resolves the aggregate k over arg through the signature
// table (Resolve): arg as it takes it, or its refusal.
func NewAggSpec(k AggKind, arg Expr, distinct bool) (AggSpec, error) {
	args, err := Resolve(k.String(), arg)
	return AggSpec{Kind: k, Arg: args[0], Distinct: distinct}, err
}

// ResultKind is the output kind of the aggregate: its signature's.
func (s AggSpec) ResultKind() types.Kind {
	if s.Arg == nil {
		return resultKind(s.Kind.String())
	}
	return resultKind(s.Kind.String(), s.Arg)
}

// String renders the aggregate for EXPLAIN output.
func (s AggSpec) String() string {
	if s.Kind == AggCountStar {
		return "count(*)"
	}
	d := ""
	if s.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", s.Kind, d, s.Arg)
}

// Accumulator folds datums into an aggregate state. Partial aggregation
// (the first phase of HAWQ's two-phase aggregates) uses the same
// accumulators; the planner arranges for the final phase to re-aggregate
// the partials (SUM of partial SUMs, SUM of partial COUNTs, MIN of
// partial MINs, ...).
type Accumulator interface {
	Add(d types.Datum)
	Result() types.Datum
}

// NewAccumulator builds the accumulator for a spec. DISTINCT is handled
// by wrapping with a dedup set keyed on the datum's grouping key, for the
// Stinger baseline and the tests' reference: the executor has its own.
func NewAccumulator(s AggSpec) Accumulator {
	var a Accumulator
	switch s.Kind {
	case AggCount, AggCountStar:
		a = &countAcc{star: s.Kind == AggCountStar}
	case AggSum:
		a = &sumAcc{}
	case AggAvg:
		a = &avgAcc{}
	case AggMin:
		a = &minmaxAcc{want: -1}
	case AggMax:
		a = &minmaxAcc{want: 1}
	default:
		panic(fmt.Sprintf("expr: bad aggregate kind %d", s.Kind))
	}
	if s.Distinct {
		return &distinctAcc{inner: a, seen: make(map[string]struct{})}
	}
	return a
}

type countAcc struct {
	star bool
	n    int64
}

func (c *countAcc) Add(d types.Datum) {
	if c.star || !d.IsNull() {
		c.n++
	}
}

func (c *countAcc) Result() types.Datum { return types.NewInt64(c.n) }

// sumAcc sums numerics, tracking the widest kind seen. SQL SUM over an
// empty input is NULL.
type sumAcc struct {
	seen bool
	cur  types.Datum
}

func (s *sumAcc) Add(d types.Datum) {
	if d.IsNull() {
		return
	}
	if !s.seen {
		s.seen = true
		s.cur = d
		return
	}
	s.cur = types.Add(s.cur, d)
}

func (s *sumAcc) Result() types.Datum {
	if !s.seen {
		return types.Null
	}
	return s.cur
}

type avgAcc struct {
	sum float64
	n   int64
}

func (a *avgAcc) Add(d types.Datum) {
	if d.IsNull() {
		return
	}
	a.sum += d.Float()
	a.n++
}

func (a *avgAcc) Result() types.Datum {
	if a.n == 0 {
		return types.Null
	}
	return types.NewFloat64(a.sum / float64(a.n))
}

type minmaxAcc struct {
	want int // -1 for min, 1 for max
	seen bool
	cur  types.Datum
}

func (m *minmaxAcc) Add(d types.Datum) {
	if d.IsNull() {
		return
	}
	if !m.seen {
		m.seen, m.cur = true, d.Detach()
		return
	}
	if c := types.Compare(d, m.cur); (m.want < 0 && c < 0) || (m.want > 0 && c > 0) {
		m.cur = d.Detach()
	}
}

func (m *minmaxAcc) Result() types.Datum {
	if !m.seen {
		return types.Null
	}
	return m.cur
}

type distinctAcc struct {
	inner Accumulator
	seen  map[string]struct{}
}

func (d *distinctAcc) Add(v types.Datum) {
	if v.IsNull() {
		// NULLs never contribute to DISTINCT aggregates.
		return
	}
	key := string(types.AppendKey(nil, v))
	if _, dup := d.seen[key]; dup {
		return
	}
	d.seen[key] = struct{}{}
	d.inner.Add(v)
}

func (d *distinctAcc) Result() types.Datum { return d.inner.Result() }

// GroupAcc folds one aggregate for every group of a hash aggregate at
// once. Groups are the dense ids the aggregate hands out; the state of
// each is the Accumulator of the same spec, held by value in one slice,
// so the row-at-a-time Add is that accumulator's and the column-at-a-time
// AddVec must only agree with it.
type GroupAcc interface {
	// Grow makes room for the groups below n.
	Grow(n int)
	// Add folds d into group g.
	Add(g int32, d types.Datum)
	// AddVec folds entry i of v, a flat vector, into group gids[i] for
	// every i, in order. A nil v is COUNT(*)'s: every row counts.
	AddVec(gids []int32, v *types.Vector)
	// Result returns group g's aggregate.
	Result(g int32) types.Datum
}

// NewGroupAcc builds the grouped accumulator for a spec's function. SUM,
// COUNT, MIN and MAX take typed vectors in tight loops; AVG takes a
// vector a Datum at a time. DISTINCT is the aggregate operator's to
// apply: it hands such an aggregate each of a group's values once.
func NewGroupAcc(s AggSpec) GroupAcc {
	switch s.Kind {
	case AggAvg:
		return &avgAccs{}
	case AggSum:
		return &sumAccs{}
	case AggMin:
		return &minmaxAccs{want: -1}
	case AggMax:
		return &minmaxAccs{want: 1}
	}
	return &countAccs{star: s.Kind == AggCountStar}
}

// extend appends zero until accs covers the groups below n, in at most
// one allocation, at least doubling: an aggregate grows its accumulators
// once per batch of new groups.
func extend[A any](accs []A, n int, zero A) []A {
	if n > cap(accs) {
		accs = slices.Grow(accs, max(n, 2*cap(accs))-len(accs))
	}
	for len(accs) < n {
		accs = append(accs, zero)
	}
	return accs
}

// addRows is AddVec a Datum at a time, for a vector no typed loop takes.
func addRows(c GroupAcc, gids []int32, v *types.Vector) {
	for i, g := range gids {
		c.Add(g, v.Datum(i))
	}
}

type countAccs struct {
	star bool
	accs []countAcc
}

// Grow implements GroupAcc.
func (c *countAccs) Grow(n int) { c.accs = extend(c.accs, n, countAcc{star: c.star}) }

// Add implements GroupAcc.
func (c *countAccs) Add(g int32, d types.Datum) { c.accs[g].Add(d) }

// Result implements GroupAcc.
func (c *countAccs) Result(g int32) types.Datum { return c.accs[g].Result() }

// AddVec implements GroupAcc.
func (c *countAccs) AddVec(gids []int32, v *types.Vector) {
	switch {
	case v == nil || v.Class() != types.ClassNull && !v.Mixed && len(v.Nulls) == 0:
		for _, g := range gids {
			c.accs[g].n++
		}
	case v.Mixed || len(v.Nulls) != 0:
		for i, g := range gids {
			if !v.Null(i) {
				c.accs[g].n++
			}
		}
	}
}

type sumAccs struct {
	accs []sumAcc
}

// Grow implements GroupAcc.
func (c *sumAccs) Grow(n int) { c.accs = extend(c.accs, n, sumAcc{}) }

// Add implements GroupAcc.
func (c *sumAccs) Add(g int32, d types.Datum) { c.accs[g].Add(d) }

// Result implements GroupAcc.
func (c *sumAccs) Result(g int32) types.Datum { return c.accs[g].Result() }

// AddVec implements GroupAcc. A running sum already of the vector's kind
// — the same decimal scale, an integer, a float — takes the next value
// with one machine add, which is what types.Add computes for those; the
// first value of a group and any change of kind go through sumAcc.Add.
func (c *sumAccs) AddVec(gids []int32, v *types.Vector) {
	switch v.Class() {
	case types.ClassNull:
	case types.ClassInt:
		ints := isInt(v.Kind)
		if !ints && v.Kind != types.KindDecimal {
			addRows(c, gids, v)
			return
		}
		for i, g := range gids {
			a := &c.accs[g]
			switch {
			case v.Nulls.At(i):
			case a.seen && ints && isInt(a.cur.K):
				a.cur.K = types.KindInt64
				a.cur.I += v.Ints[i]
			case a.seen && a.cur.K == types.KindDecimal && !ints && a.cur.Scale == v.Scale:
				a.cur.I += v.Ints[i]
			default:
				a.Add(types.Datum{K: v.Kind, Scale: v.Scale, I: v.Ints[i]})
			}
		}
	case types.ClassFloat:
		for i, g := range gids {
			a := &c.accs[g]
			switch {
			case v.Nulls.At(i):
			case a.seen && a.cur.K == types.KindFloat64:
				a.cur.F += v.Floats[i]
			default:
				a.Add(types.Datum{K: types.KindFloat64, F: v.Floats[i]})
			}
		}
	default:
		addRows(c, gids, v)
	}
}

type minmaxAccs struct {
	want int // -1 for min, 1 for max
	accs []minmaxAcc
}

// Grow implements GroupAcc.
func (c *minmaxAccs) Grow(n int) { c.accs = extend(c.accs, n, minmaxAcc{want: c.want}) }

// Add implements GroupAcc.
func (c *minmaxAccs) Add(g int32, d types.Datum) { c.accs[g].Add(d) }

// Result implements GroupAcc.
func (c *minmaxAccs) Result(g int32) types.Datum { return c.accs[g].Result() }

// AddVec implements GroupAcc: integers, dates and decimals of the
// running value's kind and scale compare as machine values, floats as
// types.CompareFloat orders them (NaN above every number); everything
// else goes through minmaxAcc.Add.
func (c *minmaxAccs) AddVec(gids []int32, v *types.Vector) {
	want := c.want
	switch v.Class() {
	case types.ClassNull:
	case types.ClassInt:
		for i, g := range gids {
			a := &c.accs[g]
			x := v.Ints[i]
			switch {
			case v.Nulls.At(i):
			case a.seen && a.cur.K == v.Kind && a.cur.Scale == v.Scale:
				if want < 0 && x < a.cur.I || want > 0 && x > a.cur.I {
					a.cur.I = x
				}
			default:
				a.Add(types.Datum{K: v.Kind, Scale: v.Scale, I: x})
			}
		}
	case types.ClassFloat:
		for i, g := range gids {
			a := &c.accs[g]
			x := v.Floats[i]
			switch {
			case v.Nulls.At(i):
			case a.seen && a.cur.K == types.KindFloat64:
				if c := types.CompareFloat(x, a.cur.F); want < 0 && c < 0 || want > 0 && c > 0 {
					a.cur.F = x
				}
			default:
				a.Add(types.Datum{K: types.KindFloat64, F: x})
			}
		}
	default:
		addRows(c, gids, v)
	}
}

type avgAccs struct {
	accs []avgAcc
}

// Grow implements GroupAcc.
func (c *avgAccs) Grow(n int) { c.accs = extend(c.accs, n, avgAcc{}) }

// Add implements GroupAcc.
func (c *avgAccs) Add(g int32, d types.Datum) { c.accs[g].Add(d) }

// AddVec implements GroupAcc.
func (c *avgAccs) AddVec(gids []int32, v *types.Vector) { addRows(c, gids, v) }

// Result implements GroupAcc.
func (c *avgAccs) Result(g int32) types.Datum { return c.accs[g].Result() }
