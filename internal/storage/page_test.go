package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/hdfs"
	"hawq/internal/types"
)

// encodeOf is the encoding and payload the writer gives a page of vals.
func encodeOf(vals []types.Datum) (byte, []byte) {
	var p pagePass
	return p.encode(vals), p.raw
}

// zoneOf is the zone map the writer gives a page of vals.
func zoneOf(vals []types.Datum) []byte {
	var p pagePass
	p.encode(vals)
	return p.zone
}

// refEncodePage is the page encoder as it was before the one pass: a
// scan for the runs, then a second for the RLE payload, runs told apart
// as the pass tells them (same).
func refEncodePage(dst []byte, vals []types.Datum) (byte, []byte) {
	n := len(vals)
	if n == 0 {
		return pageEncFlat, dst
	}
	runs := 1
	stringsOnly := vals[0].K == types.KindString || vals[0].K == types.KindNull
	for i := 1; i < n; i++ {
		if !same(&vals[i], &vals[i-1]) {
			runs++
		}
		if k := vals[i].K; k != types.KindString && k != types.KindNull {
			stringsOnly = false
		}
	}
	if runs*2 <= n {
		for i := 0; i < n; {
			j := i + 1
			for j < n && same(&vals[j], &vals[i]) {
				j++
			}
			dst = binary.AppendUvarint(dst, uint64(j-i))
			dst = types.EncodeDatum(dst, vals[i])
			i = j
		}
		return pageEncRLE, dst
	}
	if stringsOnly {
		codes := make([]int32, n)
		index := make(map[types.Datum]int32, 16)
		var entries []types.Datum
		ok := true
		for i, d := range vals {
			c, seen := index[d]
			if !seen {
				if len(entries) >= maxDictEntries {
					ok = false
					break
				}
				c = int32(len(entries))
				index[d] = c
				entries = append(entries, d)
			}
			codes[i] = c
		}
		if ok && n >= 2*len(entries) {
			dst = binary.AppendUvarint(dst, uint64(len(entries)))
			for _, e := range entries {
				dst = types.EncodeDatum(dst, e)
			}
			for _, c := range codes {
				dst = binary.AppendUvarint(dst, uint64(c))
			}
			return pageEncDict, dst
		}
	}
	for _, d := range vals {
		dst = types.EncodeDatum(dst, d)
	}
	return pageEncFlat, dst
}

// refBuildZone is the zone map as it was computed before the one pass,
// in a walk of its own.
func refBuildZone(dst []byte, vals []types.Datum) []byte {
	var minD, maxD types.Datum
	seen := false
	for _, d := range vals {
		if d.IsNull() {
			continue
		}
		if !seen {
			minD, maxD, seen = d, d, true
			continue
		}
		if !types.Comparable(d.K, minD.K) {
			return append(dst, zoneNone)
		}
		if types.Compare(d, minD) < 0 {
			minD = d
		}
		if types.Compare(d, maxD) > 0 {
			maxD = d
		}
	}
	if !seen {
		return append(dst, zoneAllNull)
	}
	dst = append(dst, zoneMinMax)
	dst = types.EncodeDatum(dst, minD)
	return types.EncodeDatum(dst, maxD)
}

// equivalencePages are one column's pages of every shape the pass must
// get right, in the order a lane would take them.
func equivalencePages() [][]types.Datum {
	f, dec, str, i64 := types.NewFloat64, types.NewDecimal, types.NewString, types.NewInt64
	nan, negZero := f(math.NaN()), f(math.Copysign(0, -1))
	var pages [][]types.Datum
	add := func(n int, gen func(i int) types.Datum) {
		page := make([]types.Datum, n)
		for i := range page {
			page[i] = gen(i)
		}
		pages = append(pages, page)
	}
	add(200, func(i int) types.Datum { return i64(int64(i*7919%1000 - 500)) })             // flat
	add(300, func(i int) types.Datum { return i64(int64(i / 40)) })                        // RLE
	add(300, func(i int) types.Datum { return str([]string{"aa", "b", "ccc"}[i%3]) })      // dictionary
	add(300, func(i int) types.Datum { return str(fmt.Sprintf("w%d", i%290)) })            // past the dictionary cap
	add(50, func(int) types.Datum { return types.Null })                                   // all NULL
	add(120, func(i int) types.Datum { return []types.Datum{types.Null, i64(9)}[i/30%2] }) // NULL runs
	add(90, func(i int) types.Datum {
		if i%4 == 0 {
			return types.Null
		}
		return i64(int64(i))
	}) // flat with NULLs
	add(100, func(i int) types.Datum { return []types.Datum{types.Null, str("x"), str("y")}[i%3] }) // NULL a dictionary entry
	add(64, func(int) types.Datum { return nan })                                                   // RLE of NaNs
	add(40, func(i int) types.Datum { return []types.Datum{nan, f(1.5), f(-2)}[i%3] })              // flat, NaN the max
	add(40, func(i int) types.Datum {
		if i == 0 {
			return negZero
		}
		return f(0)
	}) // −0 then 0s
	add(40, func(i int) types.Datum { return []types.Datum{f(0), negZero}[i%2] }) // ±0 alternating
	add(60, func(i int) types.Datum { return []types.Datum{dec(250, 2), dec(25, 1), dec(3, 0), dec(-100, 2)}[i%4] })
	late := []types.Datum{types.Null}
	for i := 0; i < 100; i++ {
		late = append(late, dec(int64(i*7919), 2))
	}
	pages = append(pages, append(late, dec(25, 1))) // turns Mixed late
	return pages
}

// TestPagePassMatchesReference: the one pass over a page gives the
// encoding and payload the two-scan encoder gave, the zone map
// refBuildZone's walk gave, and lane statistics equal, byte for byte, to
// adding the page's rows one by one — page after page into a lane of
// their kind, and once more through a lane written over several flushes and
// reopened from its encoded statistics.
func TestPagePassMatchesReference(t *testing.T) {
	// One lane per kind of value, page after page of that kind.
	type lanes struct{ perPage, perRow *catalog.LaneStats }
	byKind := map[types.Kind]lanes{}
	var p pagePass
	for i, vals := range equivalencePages() {
		kind := types.KindNull
		for _, d := range vals {
			if d.K != types.KindNull {
				kind = d.K
				break
			}
		}
		l, ok := byKind[kind]
		if !ok {
			l = lanes{catalog.OpenLaneStats(catalog.SegFile{}, 1), catalog.OpenLaneStats(catalog.SegFile{}, 1)}
			byKind[kind] = l
		}
		perPage, perRow := l.perPage, l.perRow
		enc := p.encode(vals)
		wantEnc, wantRaw := refEncodePage(nil, vals)
		if enc != wantEnc || !bytes.Equal(p.raw, wantRaw) {
			t.Errorf("page %d: encoding %d (%d bytes), reference %d (%d bytes)", i, enc, len(p.raw), wantEnc, len(wantRaw))
		}
		if want := refBuildZone(nil, vals); !bytes.Equal(p.zone, want) {
			t.Errorf("page %d: zone %x, reference %x", i, p.zone, want)
		}
		perPage.AddPage(0, &p.PageStats)
		for _, d := range vals {
			perRow.Add(types.Row{d})
		}
		if perPage.Encode() != perRow.Encode() {
			t.Fatalf("after page %d: lane statistics differ from adding its rows", i)
		}
	}
	// A page of values no comparator orders has no zone map, as before.
	mixed := []types.Datum{types.NewInt64(1), types.NewString("s"), types.NewDate(3)}
	if zone := zoneOf(mixed); !bytes.Equal(zone, refBuildZone(nil, mixed)) || zone[0] != zoneNone {
		t.Errorf("incomparable page zone %x", zone)
	}

	schema := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt64},
		types.Column{Name: "f", Kind: types.KindFloat64},
		types.Column{Name: "d", Kind: types.KindDecimal, Scale: 2},
		types.Column{Name: "s", Kind: types.KindString},
	)
	rows := make([]types.Row, 600)
	pages := equivalencePages()
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt64(int64(i / 7)),
			pages[8+i/40%4][i%40],
			pages[12][i%60],
			pages[[]int{2, 3, 4, 7}[i/100%4]][i%50],
		}
		if i%11 == 0 {
			rows[i][1] = types.Null
		}
	}
	for _, o := range []string{catalog.OrientColumn, catalog.OrientParquet} {
		spec := catalog.StorageSpec{Orientation: o, Codec: "quicklz"}
		fs := testFS(t)
		sf := catalog.SegFile{Path: "/data/eq/0/1"}
		for _, part := range [][2]int{{0, 250}, {250, 600}} {
			w, err := NewWriter(fs, spec, schema, sf, hdfs.CreateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := part[0]; i < part[1]; i++ {
				if err := w.Append(rows[i]); err != nil {
					t.Fatal(err)
				}
				if i%45 == 44 {
					if err := w.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			sf.LogicalLen, sf.ColLens = w.Lens()
			sf.Tuples, sf.Stats = w.Tuples(), w.Stats()
		}
		want := catalog.OpenLaneStats(catalog.SegFile{}, schema.Len())
		for _, r := range rows {
			want.Add(r)
		}
		if sf.Stats != want.Encode() {
			t.Errorf("%s: a lane written over several flushes and reopened has other statistics than its rows", o)
		}
		if got := scanAllSchema(t, fs, spec, schema, sf); len(got) != len(rows) {
			t.Fatalf("%s: read %d rows back, wrote %d", o, len(got), len(rows))
		}
	}
}

// scanAllSchema reads every row of sf back.
func scanAllSchema(t *testing.T, fs *hdfs.FileSystem, spec catalog.StorageSpec, schema *types.Schema, sf catalog.SegFile) []types.Row {
	t.Helper()
	var out []types.Row
	if err := Scan(fs, spec, schema, sf, schema.AllCols(), func(r types.Row) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// lineitemSchema is TPC-H lineitem's shape (internal/tpch cannot be
// imported here: it imports this package).
func lineitemSchema() *types.Schema {
	var cols []types.Column
	for i, k := range []types.Kind{types.KindInt64, types.KindInt64, types.KindInt64, types.KindInt32,
		types.KindDecimal, types.KindDecimal, types.KindDecimal, types.KindDecimal, types.KindString, types.KindString,
		types.KindDate, types.KindDate, types.KindDate, types.KindString, types.KindString, types.KindString} {
		c := types.Column{Name: fmt.Sprintf("c%d", i), Kind: k}
		if k == types.KindDecimal {
			c.Scale = 2
		}
		cols = append(cols, c)
	}
	return types.NewSchema(cols...)
}

// lineitemRows generates n rows shaped as dbgen's lineitems: orders of
// one to seven lines, flags and modes from short lists, a random
// comment.
func lineitemRows(n int) []types.Row {
	r := rand.New(rand.NewSource(11))
	instructs := []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	modes := []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	rows := make([]types.Row, 0, n)
	for okey := int64(1); len(rows) < n; okey += 4 {
		order := int32(8000 + r.Intn(2400))
		for l := 0; l < 1+r.Intn(7) && len(rows) < n; l++ {
			ship := order + r.Int31n(121) + 1
			qty := int64(1 + r.Intn(50))
			rows = append(rows, types.Row{
				types.NewInt64(okey), types.NewInt64(r.Int63n(200000)), types.NewInt64(r.Int63n(10000)), types.NewInt32(int32(l + 1)),
				types.NewDecimal(qty*100, 2), types.NewDecimal(qty*(90000+r.Int63n(20000)), 2),
				types.NewDecimal(r.Int63n(11), 2), types.NewDecimal(r.Int63n(9), 2),
				types.NewString([]string{"N", "R", "A"}[r.Intn(3)]), types.NewString([]string{"O", "F"}[r.Intn(2)]),
				types.NewDate(ship), types.NewDate(order + r.Int31n(91) + 30), types.NewDate(ship + r.Int31n(30) + 1),
				types.NewString(instructs[r.Intn(len(instructs))]), types.NewString(modes[r.Intn(len(modes))]),
				types.NewString(fmt.Sprintf("comment %x", r.Int63n(1<<40))),
			})
		}
	}
	return rows
}

// BenchmarkLaneWrite writes one segment's share of a 500-row lineitem
// COPY, 125 rows, to a fresh lane in each format (quicklz, in-memory
// HDFS): append, flush and close, statistics included.
func BenchmarkLaneWrite(b *testing.B) {
	schema, rows := lineitemSchema(), lineitemRows(125)
	for _, o := range []string{catalog.OrientRow, catalog.OrientColumn, catalog.OrientParquet} {
		b.Run(o, func(b *testing.B) {
			fs, err := hdfs.New(hdfs.Config{DataNodes: 1})
			if err != nil {
				b.Fatal(err)
			}
			spec := catalog.StorageSpec{Orientation: o, Codec: "quicklz"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := NewWriter(fs, spec, schema, catalog.SegFile{Path: fmt.Sprintf("/data/lw/%d", i)}, hdfs.CreateOptions{})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if err := w.Append(r); err != nil {
						b.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
