package catalog

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"hawq/internal/tx"
	"hawq/internal/types"
)

// ErrSegFileExists refuses to register a lane (table, segment, segno)
// that already has a visible version.
var ErrSegFileExists = errors.New("catalog: segfile already registered")

// AddSegFile registers a new data file for (table, segment, segno) with
// zero logical length. Each concurrent writer transaction claims its own
// segno — the swimming lanes of §5.4. A lane a snapshot taken now
// already sees is refused with ErrSegFileExists.
func (c *Catalog) AddSegFile(t *tx.Tx, f SegFile) error {
	if _, ok := selectOne(c.sys[SysAoseg], t.LatestSnapshot(), laneIs(f.TableOID, f.SegmentID, f.SegNo), decodeSegFile); ok {
		return fmt.Errorf("%w: table %d, segment %d, segno %d", ErrSegFileExists, f.TableOID, f.SegmentID, f.SegNo)
	}
	c.insert(t, SysAoseg, segFileRow(f))
	return nil
}

func segFileRow(f SegFile) types.Row {
	lens := make([]string, len(f.ColLens))
	for i, l := range f.ColLens {
		lens[i] = strconv.FormatInt(l, 10)
	}
	return types.Row{
		types.NewInt64(f.TableOID),
		types.NewInt32(int32(f.SegmentID)),
		types.NewInt32(int32(f.SegNo)),
		types.NewString(f.Path),
		types.NewInt64(f.LogicalLen),
		types.NewInt64(f.Tuples),
		types.NewString(strings.Join(lens, ",")),
		{K: types.KindBytes, S: f.Stats},
	}
}

// onSegment matches the seg-file rows of a table on one segment.
func onSegment(tableOID int64, segmentID int) func(types.Row) bool {
	return func(row types.Row) bool { return row[0].Int() == tableOID && row[1].Int() == int64(segmentID) }
}

// laneIs matches the seg-file rows of one lane on one segment.
func laneIs(tableOID int64, segmentID, segno int) func(types.Row) bool {
	onSeg := onSegment(tableOID, segmentID)
	return func(row types.Row) bool { return onSeg(row) && row[2].Int() == int64(segno) }
}

// UpdateSegFile advances the committed logical length and tuple count of
// a segment file: an MVCC update (delete old version + insert new) so
// concurrent snapshots keep seeing the old length until this transaction
// commits. This is exactly how aborted inserts stay invisible — the
// logical length never moves (§5). The version it replaces is the
// latest one, read through a snapshot taken now whatever t's isolation
// level: the lane's file ends where that version says.
func (c *Catalog) UpdateSegFile(t *tx.Tx, f SegFile) error {
	n, err := c.replace(t, t.LatestSnapshot(), SysAoseg, laneIs(f.TableOID, f.SegmentID, f.SegNo),
		func(row types.Row) error {
			copy(row, segFileRow(f))
			return nil
		})
	if err == nil && n == 0 {
		err = fmt.Errorf("catalog: no segfile (table %d, segment %d, segno %d)", f.TableOID, f.SegmentID, f.SegNo)
	}
	return err
}

// SegFiles lists the files of a table on one segment visible to the
// snapshot, ordered by segno.
func (c *Catalog) SegFiles(snap tx.Snapshot, tableOID int64, segmentID int) []SegFile {
	out := selectAll(c.sys[SysAoseg], snap, onSegment(tableOID, segmentID), decodeSegFile)
	sort.Slice(out, func(i, j int) bool { return out[i].SegNo < out[j].SegNo })
	return out
}

// AllSegFiles lists every file of a table across segments.
func (c *Catalog) AllSegFiles(snap tx.Snapshot, tableOID int64) []SegFile {
	out := selectAll(c.sys[SysAoseg], snap, oidIs(tableOID), decodeSegFile)
	sort.Slice(out, func(i, j int) bool {
		if out[i].SegmentID != out[j].SegmentID {
			return out[i].SegmentID < out[j].SegmentID
		}
		return out[i].SegNo < out[j].SegNo
	})
	return out
}

// LaneSegFiles returns the files of one lane of a table by segment, with
// their statistics: what a writer appending to the lane starts from.
func (c *Catalog) LaneSegFiles(snap tx.Snapshot, tableOID int64, segno int) map[int]SegFile {
	files := map[int]SegFile{}
	c.sys[SysAoseg].Select(snap, func(row types.Row) bool { return row[0].Int() == tableOID && row[2].Int() == int64(segno) }, func(_ uint64, row types.Row) bool {
		f := decodeSegFile(row)
		f.Stats = row[7].Str()
		files[f.SegmentID] = f
		return true
	})
	return files
}

// MaxSegNo returns the highest segno in use for (table, segment), or -1.
func (c *Catalog) MaxSegNo(snap tx.Snapshot, tableOID int64, segmentID int) int {
	files := c.SegFiles(snap, tableOID, segmentID)
	if len(files) == 0 {
		return -1
	}
	return files[len(files)-1].SegNo
}

func decodeSegFile(row types.Row) SegFile {
	f := SegFile{
		TableOID:   row[0].Int(),
		SegmentID:  int(row[1].Int()),
		SegNo:      int(row[2].Int()),
		Path:       row[3].Str(),
		LogicalLen: row[4].Int(),
		Tuples:     row[5].Int(),
	}
	if s := row[6].Str(); s != "" {
		for _, part := range strings.Split(s, ",") {
			n, _ := strconv.ParseInt(part, 10, 64)
			f.ColLens = append(f.ColLens, n)
		}
	}
	return f
}

// SwapSegFiles is the compaction catalog swap: it MVCC-deletes the
// listed segnos of (table, segment) and registers the merged file in
// their place, all inside the caller's transaction. Until commit every
// concurrent snapshot keeps seeing the old small files; after commit
// only the merged file is visible; an abort leaves the old set intact.
// Every victim must still be visible — a missing one means a concurrent
// writer got there first and the compaction must abort and be retried.
func (c *Catalog) SwapSegFiles(t *tx.Tx, tableOID int64, segmentID int, oldSegNos []int, merged SegFile) error {
	onSeg := onSegment(tableOID, segmentID)
	victims, err := c.deleteWhere(t, t.Snapshot(), SysAoseg, func(row types.Row) bool {
		return onSeg(row) && slices.Contains(oldSegNos, int(row[2].Int()))
	})
	if err != nil {
		return err
	}
	if len(victims) != len(oldSegNos) {
		return fmt.Errorf("catalog: compaction of table %d segment %d lost a segfile (want %d, found %d)",
			tableOID, segmentID, len(oldSegNos), len(victims))
	}
	return c.AddSegFile(t, merged)
}

// SetRelStats stores (replacing) table-level statistics.
func (c *Catalog) SetRelStats(t *tx.Tx, oid int64, s RelStats) error {
	if _, err := c.deleteWhere(t, t.Snapshot(), SysStatRel, oidIs(oid)); err != nil {
		return err
	}
	c.insert(t, SysStatRel, types.Row{types.NewInt64(oid), types.NewInt64(s.Rows)})
	return nil
}

// RelStatsFor returns table statistics; ok is false if never analyzed.
func (c *Catalog) RelStatsFor(snap tx.Snapshot, oid int64) (RelStats, bool) {
	return selectOne(c.sys[SysStatRel], snap, oidIs(oid), func(row types.Row) RelStats { return RelStats{Rows: row[1].Int()} })
}

// ColStatsOf returns the column statistics of the tables oids (shared:
// read only), merged from their visible lanes, a partitioned table's
// from its partitions'. A table with no rows, or with a lane registered
// without statistics, has none.
func (c *Catalog) ColStatsOf(snap tx.Snapshot, oids []int64) map[int64][]ColStats {
	countsFor := map[int64][]int64{} // a table -> the tables asked about whose lanes include its own
	for _, oid := range oids {
		countsFor[oid] = []int64{oid}
	}
	c.sys[SysClass].Select(snap, func(row types.Row) bool { return slices.Contains(oids, row[8].Int()) }, func(_ uint64, row types.Row) bool {
		countsFor[row[0].Int()] = append(countsFor[row[0].Int()], row[8].Int())
		return true
	})
	visible := map[int64][]lane{}
	c.sys[SysAoseg].Select(snap, func(row types.Row) bool { return countsFor[row[0].Int()] != nil }, func(id uint64, row types.Row) bool {
		for _, oid := range countsFor[row[0].Int()] {
			visible[oid] = append(visible[oid], lane{id, row[5].Int(), row[7].Str()})
		}
		return true
	})
	out := map[int64][]ColStats{}
	for _, oid := range oids {
		if st := c.mergeLanes(oid, visible[oid]); st != nil {
			out[oid] = st
		}
	}
	return out
}

// RegisterSegment records a compute segment in the system catalog.
func (c *Catalog) RegisterSegment(t *tx.Tx, info SegmentInfo) {
	c.insert(t, SysSegment, types.Row{
		types.NewInt32(int32(info.ID)),
		types.NewString(info.Host),
		types.NewInt32(int32(info.Port)),
		types.NewString(info.Status),
	})
}

// SetSegmentStatus marks a segment "up" or "down" (fault detector, §2.6).
func (c *Catalog) SetSegmentStatus(t *tx.Tx, segmentID int, status string) error {
	n, err := c.replace(t, t.Snapshot(), SysSegment, func(row types.Row) bool { return row[0].Int() == int64(segmentID) },
		func(row types.Row) error {
			row[3] = types.NewString(status)
			return nil
		})
	if err == nil && n == 0 {
		err = fmt.Errorf("catalog: segment %d not registered", segmentID)
	}
	return err
}

// Segments lists registered segments ordered by ID.
func (c *Catalog) Segments(snap tx.Snapshot) []SegmentInfo {
	out := selectAll(c.sys[SysSegment], snap, nil, func(row types.Row) SegmentInfo {
		return SegmentInfo{
			ID:     int(row[0].Int()),
			Host:   row[1].Str(),
			Port:   int(row[2].Int()),
			Status: row[3].Str(),
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DropSegFiles MVCC-deletes every segment-file entry of a table
// (TRUNCATE TABLE).
func (c *Catalog) DropSegFiles(t *tx.Tx, oid int64) error {
	_, err := c.deleteWhere(t, t.Snapshot(), SysAoseg, oidIs(oid))
	return err
}
