package catalog

import (
	"fmt"
	"math"
	"testing"

	"hawq/internal/tx"
	"hawq/internal/types"
)

// statsRow is row i of the tables these tests fill: a key, a value with
// a NULL every seventh row, a decimal whose scale varies and a constant.
func statsRow(i int) types.Row {
	v := types.NewString(fmt.Sprintf("v%d", i%17))
	if i%7 == 0 {
		v = types.Null
	}
	// 2.5 and 2.50 are one value, as they are one group.
	amt := types.NewDecimal(int64(i%5)*10, 1)
	if i%2 == 0 {
		amt = types.NewDecimal(int64(i%5)*100, 2)
	}
	return types.Row{types.NewInt64(int64(i)), v, amt, types.NewInt32(7)}
}

// laneOf counts rows [lo, hi) in a fresh lane's statistics.
func laneOf(lo, hi int) *LaneStats {
	s := OpenLaneStats(SegFile{}, 4)
	for i := lo; i < hi; i++ {
		s.Add(statsRow(i))
	}
	return s
}

// TestLaneSketchesMerge: the statistics of lanes merged together are,
// register for register, the statistics of one lane over all of their
// rows, and merging is what a writer reopening a lane does too.
func TestLaneSketchesMerge(t *testing.T) {
	whole := laneOf(0, 3000).Encode()
	var merged LaneStats
	for _, part := range [][2]int{{0, 1000}, {1000, 1001}, {1001, 3000}} {
		if !merged.merge(laneOf(part[0], part[1]).Encode()) {
			t.Fatal("merge refused a lane's statistics")
		}
	}
	if merged.Encode() != whole {
		t.Error("merged lanes differ from one lane over all their rows")
	}
	reopened := OpenLaneStats(SegFile{Tuples: 1000, Stats: laneOf(0, 1000).Encode()}, 4)
	for i := 1000; i < 3000; i++ {
		reopened.Add(statsRow(i))
	}
	if reopened.Encode() != whole {
		t.Error("a reopened lane's statistics differ from one lane over all its rows")
	}
	got := merged.colStats(3000)
	nulls := float64(3000/7 + 1)
	if got[0].NDistinct < 2900 || got[0].NDistinct > 3100 || got[0].Min.Int() != 0 || got[0].Max.Int() != 2999 || got[0].NullFrac != 0 {
		t.Errorf("key stats = %+v", got[0])
	}
	if got[1].NDistinct != 17 || got[1].NullFrac != nulls/3000 || got[1].Min.Str() != "v0" || got[1].Max.Str() != "v9" {
		t.Errorf("value stats = %+v", got[1])
	}
	if got[2].NDistinct != 5 || got[3].NDistinct != 1 {
		t.Errorf("decimal NDV = %v, constant NDV = %v; want 5 and 1", got[2].NDistinct, got[3].NDistinct)
	}
}

// TestLaneStatsRefuseWhatTheyCannotDescribe: a lane holding rows its
// statistics never counted keeps none, and a garbled or narrower blob is
// refused.
func TestLaneStatsRefuseWhatTheyCannotDescribe(t *testing.T) {
	if s := OpenLaneStats(SegFile{Tuples: 5}, 4); s != nil || s.Encode() != "" {
		t.Error("a lane with rows and no statistics opened statistics")
	}
	enc := laneOf(0, 10).Encode()
	if OpenLaneStats(SegFile{Tuples: 10, Stats: enc}, 3) != nil {
		t.Error("statistics of 4 columns opened for a 3-column table")
	}
	for _, bad := range []string{enc[:len(enc)-1], enc + "x", "\\xff"} {
		var s LaneStats
		if s.merge(bad) {
			t.Errorf("merged a malformed blob of %d bytes", len(bad))
		}
	}
}

// TestColStatsOfMergesVisibleLanes: a table's statistics are its visible
// lanes' merged, a partitioned table's its partitions', and a table with
// a lane registered without statistics has none.
func TestColStatsOfMergesVisibleLanes(t *testing.T) {
	c, m := newEnv()
	tr := m.Begin(tx.ReadCommitted)
	schema := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt64},
		types.Column{Name: "v", Kind: types.KindString},
		types.Column{Name: "amt", Kind: types.KindDecimal, Scale: 2},
		types.Column{Name: "c", Kind: types.KindInt32},
	)
	plain, _ := c.CreateTable(tr, &TableDesc{Name: "plain", Schema: schema})
	parent, _ := c.CreateTable(tr, &TableDesc{Name: "parent", Schema: schema, PartKind: PartList, PartCol: 0})
	kid1, _ := c.CreateTable(tr, &TableDesc{Name: "parent_1_prt_1", Schema: schema, ParentOID: parent, PartKind: PartList, PartCol: 0})
	kid2, _ := c.CreateTable(tr, &TableDesc{Name: "parent_1_prt_2", Schema: schema, ParentOID: parent, PartKind: PartList, PartCol: 0})
	blind, _ := c.CreateTable(tr, &TableDesc{Name: "blind", Schema: schema})
	empty, _ := c.CreateTable(tr, &TableDesc{Name: "empty", Schema: schema})
	lane := func(oid int64, seg, segno, lo, hi int) {
		t.Helper()
		f := SegFile{TableOID: oid, SegmentID: seg, SegNo: segno, Path: fmt.Sprint(oid, seg, segno), Tuples: int64(hi - lo), Stats: laneOf(lo, hi).Encode()}
		if err := c.AddSegFile(tr, f); err != nil {
			t.Fatal(err)
		}
	}
	lane(plain, 0, 1, 0, 400)
	lane(plain, 1, 1, 400, 1000)
	lane(kid1, 0, 1, 0, 400)
	lane(kid2, 1, 1, 400, 1000)
	lane(blind, 0, 1, 0, 400)
	c.AddSegFile(tr, SegFile{TableOID: blind, SegmentID: 1, SegNo: 1, Path: "blind", Tuples: 600})
	c.AddSegFile(tr, SegFile{TableOID: empty, SegmentID: 0, SegNo: 1, Path: "empty"})
	tr.Commit()

	r := m.Begin(tx.ReadCommitted)
	defer r.Abort()
	// A partition asked about beside its parent counts in both.
	all := c.ColStatsOf(r.Snapshot(), []int64{plain, parent, kid1, blind, empty})
	for oid, want := range map[int64][]ColStats{plain: laneOf(0, 1000).colStats(1000), parent: laneOf(0, 1000).colStats(1000), kid1: laneOf(0, 400).colStats(400)} {
		got := all[oid]
		if len(got) != len(want) {
			t.Fatalf("table %d: %d columns of statistics, want %d", oid, len(got), len(want))
		}
		for i := range want {
			if got[i].NDistinct != want[i].NDistinct || got[i].NullFrac != want[i].NullFrac ||
				types.Compare(got[i].Min, want[i].Min) != 0 || types.Compare(got[i].Max, want[i].Max) != 0 {
				t.Errorf("table %d column %d: %+v, want %+v", oid, i, got[i], want[i])
			}
		}
	}
	for _, oid := range []int64{blind, empty} {
		if st, ok := all[oid]; ok {
			t.Errorf("table %d has statistics %+v", oid, st)
		}
	}
	if len(all) != 3 {
		t.Errorf("statistics of %d tables, want 3", len(all))
	}
	// A write that replaces a lane replaces what was merged from it, for
	// the snapshots that see the write.
	before := r.Snapshot()
	w := m.Begin(tx.ReadCommitted)
	if err := c.UpdateSegFile(w, SegFile{TableOID: plain, SegmentID: 0, SegNo: 1, Path: "p", Tuples: 2000, Stats: laneOf(0, 2000).Encode()}); err != nil {
		t.Fatal(err)
	}
	w.Commit()
	if got := c.ColStatsOf(m.Begin(tx.ReadCommitted).Snapshot(), []int64{plain})[plain]; got[0].Max.Int() != 1999 {
		t.Errorf("statistics after a lane was replaced: %+v", got[0])
	}
	if got := c.ColStatsOf(before, []int64{plain})[plain]; got[0].Max.Int() != 999 {
		t.Errorf("an older snapshot's statistics: %+v", got[0])
	}
	// A lane's statistics are read only where it is written.
	for _, f := range c.AllSegFiles(r.Snapshot(), plain) {
		if f.Stats != "" {
			t.Error("AllSegFiles carried a lane's statistics")
		}
	}
	for _, f := range c.LaneSegFiles(r.Snapshot(), plain, 1) {
		if f.Stats == "" {
			t.Error("LaneSegFiles left out a lane's statistics")
		}
	}
}

// TestSketchError bounds the distinct estimate's error over a range of
// counts: linear counting while few registers are set, the raw
// estimate after.
func TestSketchError(t *testing.T) {
	for _, n := range []int{1, 10, 100, 1000, 10000, 100000} {
		s := OpenLaneStats(SegFile{}, 1)
		for i := 0; i < n; i++ {
			s.Add(types.Row{types.NewInt64(int64(i) * 7919)})
		}
		got := s.colStats(int64(n))[0].NDistinct
		if rel := math.Abs(got-float64(n)) / float64(n); rel > 0.06 {
			t.Errorf("%d distinct values estimated as %v (%.1f %% off)", n, got, 100*rel)
		}
	}
}
