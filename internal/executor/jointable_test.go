package executor

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hawq/internal/plan"
	"hawq/internal/testutil"
	"hawq/internal/types"
)

// keyDatums draws join-key cells that collide on purpose: a handful of
// small values in every representation that can hold them — either
// integer width, a decimal of every scale from 0 to 8 with the zeros that
// takes, a DOUBLE (−0.0 for 0) — beside dates, booleans, strings and
// bytes over the same few values, NULL, and NaN in two bit patterns.
func keyDatums(rng *rand.Rand) types.Datum {
	v := int64(rng.Intn(7) - 3)
	switch rng.Intn(11) {
	case 0:
		return types.NewInt32(int32(v))
	case 1:
		return types.NewInt64(v)
	case 2: // an integral decimal, padded with zeros
		sc := int8(rng.Intn(types.MaxDecimalScale + 1))
		u := v
		for i := int8(0); i < sc; i++ {
			u *= 10
		}
		return types.NewDecimal(u, sc)
	case 3: // halves and tenths, at the scale they need or a wider one
		sc := int8(1 + rng.Intn(types.MaxDecimalScale))
		u := v*10 + int64(rng.Intn(3))*5
		for i := int8(1); i < sc; i++ {
			u *= 10
		}
		return types.NewDecimal(u, sc)
	case 4:
		if v == 0 && rng.Intn(2) == 0 {
			return types.NewFloat64(math.Copysign(0, -1))
		}
		return types.NewFloat64(float64(v) + float64(rng.Intn(3))*0.5)
	case 5:
		return types.NewDate(int32(v))
	case 6:
		return types.NewBool(v > 0)
	case 7:
		return types.NewString(string(rune('a' + v + 3)))
	case 8:
		return types.Null
	case 9:
		return types.NewFloat64(math.Float64frombits(math.Float64bits(math.NaN()) ^ uint64(v&1)))
	default:
		return types.NewBytes([]byte{byte('a' + v + 3)})
	}
}

// TestKeyHashMatchesCompare: for every pair of kinds the planner admits
// as a hash key, two cells are the same key exactly when types.Compare
// calls them equal, and equal keys have one hash — and exactly then they
// have the same types.AppendKey bytes, the key the references' DISTINCT
// aggregates go by. NaN, of either bit pattern, is the same key as NaN,
// as Compare says. One case is a grouping's, where Compare has no answer:
// NULL is the same key as NULL and as nothing else. A join refuses it
// before it asks.
func TestKeyHashMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	pairs, equal, collisions := 0, 0, 0
	for i := 0; i < 400000; i++ {
		a, b := keyDatums(rng), keyDatums(rng)
		var want bool
		switch {
		case a.IsNull() || b.IsNull():
			want = a.IsNull() && b.IsNull()
		case !types.Hashable(a.K, b.K):
			if keyEqual(&a, &b) {
				t.Fatalf("%s %v and %s %v are one key, and no hash key at all", a.K, a, b.K, b)
			}
			continue
		default:
			want = types.Compare(a, b) == 0
		}
		pairs++
		if got := keyEqual(&a, &b); got != want {
			t.Fatalf("keyEqual(%s %v, %s %v) = %v, Compare says %v", a.K, a, b.K, b, got, want)
		}
		if got := bytes.Equal(types.AppendKey(nil, a), types.AppendKey(nil, b)); got != want {
			t.Fatalf("AppendKey of %s %v and of %s %v the same: %v, Compare says %v", a.K, a, b.K, b, got, want)
		}
		same := keyHash(&a) == keyHash(&b)
		switch {
		case want && !same:
			t.Fatalf("%s %v and %s %v compare equal and hash apart", a.K, a, b.K, b)
		case want:
			equal++
		case same:
			collisions++
		}
	}
	if equal < pairs/50 || collisions > 0 {
		t.Errorf("%d hashable pairs: %d equal, %d unequal with one hash", pairs, equal, collisions)
	}
	// To a join a NULL key is no key, wherever it stands; a NaN is one.
	row := types.Row{types.NewInt64(1), types.Null, types.NewString("x"), types.NewFloat64(math.NaN())}
	for _, cols := range [][]int{{0, 2}, {3}, {3, 0}} {
		if _, ok := hashKeys(row, cols); !ok {
			t.Errorf("keys %v have no NULL and are refused", cols)
		}
	}
	for _, cols := range [][]int{{1}, {0, 1}, {1, 2}} {
		if _, ok := hashKeys(row, cols); ok {
			t.Errorf("keys %v include a NULL and pass for a join key", cols)
		}
	}
	// The hash of a one-column key is its column's.
	h, _ := hashKeys(row, []int{2, 0})
	if h0, _ := hashKeys(row, []int{0}); h0 != keyHash(&row[0]) {
		t.Errorf("one-column key hashes %x, its column %x", h0, keyHash(&row[0]))
	}
	if swapped, _ := hashKeys(row, []int{0, 2}); swapped == h {
		t.Error("a two-column key hashes the same in either column order")
	}
}

// vecKeyClasses draws the values of one vector per class of key: either
// integer width, a decimal at each scale from 0 to 4 with the trailing
// zeros that takes, dates, booleans, doubles (±0.0 and NaN of both bit
// patterns among them), strings and bytes with the empty one, a Mixed
// column, and a column of NULLs alone. A few values each, so that runs
// and dictionaries form.
func vecKeyClasses() map[string]func(rng *rand.Rand) types.Datum {
	small := func(rng *rand.Rand) int64 { return int64(rng.Intn(5) - 2) }
	classes := map[string]func(rng *rand.Rand) types.Datum{
		"int32": func(rng *rand.Rand) types.Datum { return types.NewInt32(int32(small(rng))) },
		"int64": func(rng *rand.Rand) types.Datum { return types.NewInt64(small(rng) << 40) },
		"date":  func(rng *rand.Rand) types.Datum { return types.NewDate(int32(9000 + small(rng))) },
		"bool":  func(rng *rand.Rand) types.Datum { return types.NewBool(rng.Intn(2) == 0) },
		"float": func(rng *rand.Rand) types.Datum {
			nan := math.Float64frombits(math.Float64bits(math.NaN()) ^ uint64(rng.Intn(2)))
			return types.NewFloat64([]float64{0, math.Copysign(0, -1), 1.5, -7.25, nan}[rng.Intn(5)])
		},
		"string": func(rng *rand.Rand) types.Datum {
			return types.NewString([]string{"", "a", "ab", "ba", "MAIL"}[rng.Intn(5)])
		},
		"bytes": func(rng *rand.Rand) types.Datum { return types.NewBytes([]byte([]string{"", "a", "ab"}[rng.Intn(3)])) },
		"mixed": func(rng *rand.Rand) types.Datum {
			return []types.Datum{types.NewInt64(7), types.NewDecimal(70, 1), types.NewDecimal(75, 1), types.NewInt32(7)}[rng.Intn(4)]
		},
		"null": func(*rand.Rand) types.Datum { return types.Null },
	}
	for sc := int8(0); sc <= 4; sc++ {
		classes[fmt.Sprintf("dec%d", sc)] = func(rng *rand.Rand) types.Datum {
			u := small(rng)
			for i := int8(0); i < sc; i++ {
				u *= 10
			}
			return types.NewDecimal(u+int64(rng.Intn(2)), sc)
		}
	}
	return classes
}

// TestVecKeyHashMatchesKeyHash: a key hashed from a vector's entries is
// the key hashed from the Datum the entry reads as, valid exactly when
// that Datum is not NULL, and a stored key cell of any class equals an
// entry (vecKeyEqual) exactly when it equals that Datum (keyEqual) —
// entry by entry through vecKeyHash and vecKeyEqual, and row by
// row through foldVecKeys over every class, in every encoding, with and
// without NULLs, under no selection and a sparse one, one key column and
// two (against hashKeys over the rows).
func TestVecKeyHashMatchesKeyHash(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n = 150
	classes := vecKeyClasses()
	var names []string
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	column := func(name string, nulls bool) []types.Datum {
		vals := make([]types.Datum, n)
		for i := range vals {
			if i > 0 && rng.Intn(3) == 0 {
				vals[i] = vals[i-1] // runs
				continue
			}
			if vals[i] = classes[name](rng); nulls && rng.Intn(4) == 0 {
				vals[i] = types.Null
			}
		}
		return vals
	}
	var sparse []int32
	for i := 2; i < n; i += 3 {
		sparse = append(sparse, int32(i))
	}
	encs := []types.VecEnc{types.VecFlat, types.VecRLE, types.VecDict}
	checked := map[types.VecClass]bool{}
	for _, name := range names {
		for _, nulls := range []bool{false, true} {
			for _, enc := range encs {
				where := fmt.Sprintf("%s nulls=%v enc=%d", name, nulls, enc)
				vals := column(name, nulls)
				v := testutil.Vector(enc, vals)
				checked[v.Class()] = true
				for e := range v.Entries() {
					d := v.Datum(e)
					h, valid := vecKeyHash(&v, e)
					if h != keyHash(&d) || valid != !d.IsNull() {
						t.Fatalf("%s: entry %d (%s %v) hashes %x valid %v, keyHash %x", where, e, d.K, d, h, valid, keyHash(&d))
					}
					// A stored cell of every class against the entry.
					for _, cls := range append(names, name) {
						c := classes[cls](rng)
						if cls == name && rng.Intn(2) == 0 {
							c = d
						}
						if vecKeyEqual(&c, &v, e) != keyEqual(&c, &d) {
							t.Fatalf("%s: entry %d (%s %v) against %s %v: vecKeyEqual %v, keyEqual %v", where, e, d.K, d, c.K, c, !keyEqual(&c, &d), keyEqual(&c, &d))
						}
					}
				}
				// Two key columns, this one and another class, as a batch.
				other := names[rng.Intn(len(names))]
				vb := testutil.VecBatch([][]types.Datum{vals, column(other, true)}, []types.VecEnc{enc, encs[rng.Intn(len(encs))]})
				rows := make([]types.Row, n)
				for i := range rows {
					rows[i] = types.Row{vals[i], testutil.VectorRows(&vb.Cols[1])[i]}
				}
				for _, sel := range [][]int32{nil, sparse} {
					for _, cols := range [][]int{{0}, {1, 0}} {
						m := n
						if sel != nil {
							m = len(sel)
						}
						hashes, bad := make([]uint64, m), types.NullBitmap(nil)
						for _, c := range cols {
							idx, _ := vb.Cols[c].EntryIndex(sel, nil)
							foldVecKeys(&vb.Cols[c], idx, hashes, &bad, nil)
						}
						for i := range m {
							r := i
							if sel != nil {
								r = int(sel[i])
							}
							want, valid := hashKeys(rows[r], cols)
							if hashes[i] != want || bad.At(i) == valid {
								t.Fatalf("%s with %s, keys %v, sel %v: row %d (%v) folds to %x NULL %v, hashKeys %x valid %v",
									where, other, cols, sel != nil, r, rows[r], hashes[i], bad.At(i), want, valid)
							}
						}
					}
				}
				types.PutVecBatch(vb)
			}
		}
	}
	if len(checked) != 5 {
		t.Errorf("vectors of %d classes checked, want all 5", len(checked))
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
