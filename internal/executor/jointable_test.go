package executor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hawq/internal/plan"
	"hawq/internal/testutil"
	"hawq/internal/types"
)

// keyCells are key cells of every class that collide on purpose: one
// value in several representations — either integer width, decimals of
// several scales, a DOUBLE (±0.0, two NaN bit patterns, ±Infinity) —
// beside dates, booleans, strings and bytes (the empty one and a trailing
// space among them), and NULL.
var keyCells = []types.Datum{
	types.NewInt32(0), types.NewInt32(7), types.NewInt32(-1), types.NewInt64(7), types.NewInt64(0), types.NewInt64(1 << 40),
	types.NewDecimal(700, 2), types.NewDecimal(70, 1), types.NewDecimal(75, 1), types.NewDecimal(750, 2), types.NewDecimal(0, 4), types.NewDecimal(-100, 2),
	types.NewFloat64(0), types.NewFloat64(math.Copysign(0, -1)), types.NewFloat64(7), types.NewFloat64(7.5),
	types.NewFloat64(math.NaN()), types.NewFloat64(math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)),
	types.NewFloat64(math.Inf(1)), types.NewFloat64(math.Inf(-1)),
	types.NewDate(7), types.NewDate(0), types.NewBool(true), types.NewBool(false),
	types.NewString(""), types.NewString("a"), types.NewString("a "), types.NewString("ab"), types.NewString("ba"),
	types.NewBytes(nil), types.NewBytes([]byte("a")), types.NewBytes([]byte("ab")),
	types.Null,
}

// TestKeyEqualMatchesCompare: for every pair of kinds the planner admits
// as a hash key, two cells are the same key exactly when types.Compare
// calls them equal — NaN, of either bit pattern, the same key as NaN —
// and no cells across classes are; a grouping's NULL is the same key as
// NULL and as nothing else. A stored cell equals a vector's entry
// (vecKeyEqual) exactly when it equals the Datum the entry reads as, for
// vectors of every class in every encoding.
func TestKeyEqualMatchesCompare(t *testing.T) {
	for _, a := range keyCells {
		for _, b := range keyCells {
			var want bool
			switch {
			case a.IsNull() || b.IsNull():
				want = a.IsNull() && b.IsNull()
			case types.Hashable(a.K, b.K):
				want = types.Compare(a, b) == 0
			}
			if got := keyEqual(&a, &b); got != want {
				t.Fatalf("keyEqual(%s %v, %s %v) = %v, want %v", a.K, a, b.K, b, got, want)
			}
		}
	}
	classes := map[types.Kind][]types.Datum{}
	var mixed []types.Datum
	for _, d := range keyCells {
		classes[d.K] = append(classes[d.K], d, types.Null, d)
		if d.K == types.KindInt64 || d.K == types.KindDecimal {
			mixed = append(mixed, d)
		}
	}
	columns := [][]types.Datum{mixed, {types.Null, types.Null}, {types.NewDecimal(700, 2), types.NewDecimal(750, 2), types.NewDecimal(-100, 2)}}
	for _, vals := range classes {
		columns = append(columns, vals)
	}
	for _, vals := range columns {
		for _, enc := range []types.VecEnc{types.VecFlat, types.VecRLE, types.VecDict} {
			v := testutil.Vector(enc, vals)
			for e := range v.Entries() {
				d := v.Datum(e)
				for _, c := range keyCells {
					if got, want := vecKeyEqual(&c, &v, e), keyEqual(&c, &d); got != want {
						t.Fatalf("vector %v enc %d, entry %d (%s %v) against %s %v: vecKeyEqual %v, keyEqual %v", vals, enc, e, d.K, d, c.K, c, got, want)
					}
				}
			}
		}
	}
}

// TestKeyTableFillsItsDirectoryEvenly: a keyTable built from the keys one
// segment receives — which share the top bits of their hash, the bits
// types.SegmentOf reads — fills its directory as evenly as one built from
// random keys, for dense keys and for keys at a stride of 4 alike.
func TestKeyTableFillsItsDirectoryEvenly(t *testing.T) {
	const rows, segments = 20000, 4
	used := func(keys []int64) float64 {
		var tab keyTable
		for _, k := range keys {
			row := types.Row{types.NewInt64(k)}
			h, _ := types.HashKeys(row, []int{0})
			if err := tab.add(h, row); err != nil {
				t.Fatal(err)
			}
		}
		tab.seal()
		n := 0
		for _, l := range tab.head {
			if l != 0 {
				n++
			}
		}
		return float64(n) / float64(len(tab.head))
	}
	rng := rand.New(rand.NewSource(37))
	random := make([]int64, rows)
	for i := range random {
		random[i] = rng.Int63()
	}
	want := used(random)
	for _, stride := range []int64{1, 4} {
		var keys []int64
		for k := stride; len(keys) < rows; k += stride {
			if p, _ := types.HashKeys(types.Row{types.NewInt64(k)}, []int{0}); types.SegmentOf(p, segments) == 0 {
				keys = append(keys, k)
			}
		}
		if got := used(keys); got < 0.97*want {
			t.Errorf("one segment's keys at stride %d use %.3f of the directory's slots, random keys %.3f", stride, got, want)
		}
	}
}

// TestRowStoreLocate: the chunk arithmetic agrees with the chunk sizes,
// row after row, across the doubling chunks and well into the fixed ones.
func TestRowStoreLocate(t *testing.T) {
	chunk, off := 0, 0
	for i := 0; i < 5*chunkRows(rowStoreDoublings); i++ {
		if c, o := locate(i); c != chunk || o != off {
			t.Fatalf("row %d located at %d in chunk %d, want %d in chunk %d", i, o, c, off, chunk)
		}
		if off++; off == chunkRows(chunk) {
			chunk, off = chunk+1, 0
		}
	}
	var s rowStore
	var views []types.Row
	for i := 0; i < 100; i++ {
		views = append(views, s.add(types.Row{types.NewInt64(int64(i)), types.NewString("s")}))
	}
	for i, v := range views {
		if got := s.row(i); &got[0] != &v[0] || v[0].I != int64(i) || cap(v) != 2 {
			t.Fatalf("row %d: view %v (cap %d), store has %v", i, v, cap(v), got)
		}
	}
	if s.reset(); s.n != 0 || s.chunks != nil {
		t.Error("reset kept rows or chunks")
	}
}

// BenchmarkHashJoin times the two halves of the hash join by key shape.
// build drains a join of 16 384 build rows and no probe row: hashing,
// copying into the table, sizing the directory. probe drains a join of
// 4 096 build rows and 16 384 probe rows that all match: hashing, the
// chain walk, the key comparison and the output rows — sixteen a probe
// row under int_dup16, one otherwise. scanprobe probes from a scan of
// writeIntsTable's 16 384 rows, through its vectors, on an integer key:
// sel1pct against 164 build rows, which one probe row in a hundred
// matches, sel25pct against 4 096, which one in four matches (where the
// probe starts to read a block out whole), all against 16 384, which
// every probe row matches once.
func BenchmarkHashJoin(b *testing.B) {
	schema := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt64}, types.Column{Name: "s", Kind: types.KindString}, types.Column{Name: "v", Kind: types.KindInt64})
	// Row i of a side whose keys repeat after distinct rows.
	side := func(n, distinct int) *plan.Values {
		v := &plan.Values{Schema: schema}
		for i := 0; i < n; i++ {
			k := i % distinct
			v.Rows = append(v.Rows, types.Row{types.NewInt64(int64(k) * 7919), types.NewString(fmt.Sprintf("Customer#%09d", k)), types.NewInt64(int64(i))})
		}
		return v
	}
	const buildRows, probeBuildRows, probeRows = 16384, 4096, 16384
	for _, tc := range []struct {
		name string
		keys []int
		dup  int
	}{
		{"int_unique", []int{0}, 1},
		{"int_dup16", []int{0}, 16},
		{"str_key", []int{1}, 1},
		{"two_col", []int{0, 1}, 1},
	} {
		run := func(name string, left, right *plan.Values, want int) {
			j := &plan.HashJoin{Kind: plan.InnerJoin, Left: left, Right: right, LeftKeys: tc.keys, RightKeys: tc.keys,
				Schema: left.Schema.Concat(right.Schema)}
			b.Run(name+"/"+tc.name, func(b *testing.B) {
				ctx := &Context{Segment: 0}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					n := 0
					if err := Drain(nil, mustBuild(b, ctx, j), func(types.Row) error { n++; return nil }); err != nil {
						b.Fatal(err)
					}
					if n != want {
						b.Fatalf("%d rows, want %d", n, want)
					}
				}
			})
		}
		run("build", side(0, 1), side(buildRows, buildRows/tc.dup), 0)
		run("probe", side(probeRows, probeBuildRows/tc.dup), side(probeBuildRows, probeBuildRows/tc.dup), probeRows*tc.dup)
	}
	fs, desc, segFiles := writeIntsTable(b, probeRows)
	for _, tc := range []struct {
		name string
		step int
	}{{"sel1pct", 100}, {"sel25pct", 4}, {"all", 1}} {
		var keys [][]int64
		for k := 0; k < probeRows; k += tc.step {
			keys = append(keys, []int64{int64(k)})
		}
		j := &plan.HashJoin{
			Kind:     plan.InnerJoin,
			Left:     &plan.Scan{Table: desc, Proj: []int{0, 1, 2}, SegFiles: segFiles, Schema: desc.Schema},
			Right:    valuesNode(intsSchema("rk"), keys...),
			LeftKeys: []int{0}, RightKeys: []int{0}, Schema: intsSchema("k", "v", "w", "rk"),
		}
		b.Run("scanprobe/"+tc.name, func(b *testing.B) {
			ctx := &Context{Segment: 0, FS: fs}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				if err := Drain(nil, mustBuild(b, ctx, j), func(types.Row) error { n++; return nil }); err != nil {
					b.Fatal(err)
				}
				if n != len(keys) {
					b.Fatalf("%d rows, want %d", n, len(keys))
				}
			}
		})
	}
}

// BenchmarkDistinct times DISTINCT over 16 384 one-column rows of 4 096
// values, integers and strings: hashing, the chain walk, the key
// comparison, and the copy of a row met for the first time.
func BenchmarkDistinct(b *testing.B) {
	for name, cell := range map[string]func(k int) types.Datum{
		"int": func(k int) types.Datum { return types.NewInt64(int64(k) * 7919) },
		"str": func(k int) types.Datum { return types.NewString(fmt.Sprintf("Customer#%09d", k)) },
	} {
		in := &plan.Values{Schema: types.NewSchema(types.Column{Name: "k"})}
		for i := 0; i < 16384; i++ {
			in.Rows = append(in.Rows, types.Row{cell(i % 4096)})
		}
		b.Run(name, func(b *testing.B) {
			ctx := &Context{Segment: 0}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				if err := Drain(nil, mustBuild(b, ctx, distinctOf(in)), func(types.Row) error { n++; return nil }); err != nil {
					b.Fatal(err)
				}
				if n != 4096 {
					b.Fatalf("%d rows, want 4096", n)
				}
			}
		})
	}
}
