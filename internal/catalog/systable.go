// Package catalog implements HAWQ's Unified Catalog Service (§2.2): MVCC
// system tables describing every object in the system (tables, columns,
// segment files, statistics, segments), typed accessors used by the
// planner and executor, and CaQL — the internal catalog query language
// supporting single-table SELECT, COUNT(), multi-row DELETE and
// single-row INSERT/UPDATE.
//
// Catalog rows are versioned with xmin/xmax and judged against tx
// snapshots, giving catalog readers snapshot isolation (§5). Every
// mutation is logged to the WAL so a standby master can replay it (§2.6).
package catalog

import (
	"errors"
	"fmt"
	"sync"

	"hawq/internal/tx"
	"hawq/internal/types"
)

// SysTable is one MVCC catalog heap (pg_class-style).
type SysTable struct {
	Name   string
	Schema *types.Schema

	mu      sync.RWMutex
	rows    []sysRow
	byID    map[uint64]int // row ID → index in rows (IDs are never reused)
	nextRow uint64
	kept    int // versions the last Vacuum kept (see needsVacuum)
}

type sysRow struct {
	id   uint64
	xmin tx.XID
	xmax tx.XID
	data types.Row
}

// NewSysTable creates an empty system table.
func NewSysTable(name string, schema *types.Schema) *SysTable {
	return &SysTable{Name: name, Schema: schema, nextRow: 1, byID: map[uint64]int{}}
}

// Insert adds a row version created by xid and returns its row ID.
func (t *SysTable) Insert(xid tx.XID, row types.Row) uint64 {
	if len(row) != t.Schema.Len() {
		panic(fmt.Sprintf("catalog: %s insert width %d, want %d", t.Name, len(row), t.Schema.Len()))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextRow
	t.nextRow++
	t.rows = append(t.rows, sysRow{id: id, xmin: xid, data: row.Clone()})
	t.byID[id] = len(t.rows) - 1
	return id
}

// InsertWithID adds a row with a caller-chosen ID (WAL replay on the
// standby and during recovery, where IDs must match the primary). It is
// idempotent: a row ID already present is left untouched, so records
// that straddle a checkpoint snapshot can be replayed on top of it. The
// return reports whether the row was inserted.
func (t *SysTable) InsertWithID(xid tx.XID, id uint64, row types.Row) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id >= t.nextRow {
		t.nextRow = id + 1
	}
	if _, ok := t.byID[id]; ok {
		return false
	}
	t.rows = append(t.rows, sysRow{id: id, xmin: xid, data: row.Clone()})
	t.byID[id] = len(t.rows) - 1
	return true
}

// ErrConcurrentUpdate refuses a write to a row version that another
// live or committed transaction has already retired: the first writer
// wins, and the refused one must abort.
var ErrConcurrentUpdate = errors.New("catalog: row was updated by a concurrent transaction")

// stamp is the one rule by which a row version is retired for xid: a
// version with no delete stamp takes xid's, and so does one whose stamp
// retired reports void (its transaction aborted, so the version is live
// again). Any other stamp belongs to a concurrent update, which the rule
// refuses.
func (r *sysRow) stamp(xid tx.XID, retired func(tx.XID) bool) error {
	if r.xmax != tx.InvalidXID && r.xmax != xid && !retired(r.xmax) {
		return ErrConcurrentUpdate
	}
	r.xmax = xid
	return nil
}

// Select calls fn for every row version that match accepts (every one
// when match is nil) and the snapshot sees; fn returning false stops it.
// match sees a version's data before its visibility is judged, so a
// lookup by key pays the snapshot check — a transaction status read
// under the manager's lock — for its own rows only. This is the
// catalog's one read: every accessor and CaQL statement goes through it.
func (t *SysTable) Select(snap tx.Snapshot, match func(types.Row) bool, fn func(id uint64, row types.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i := range t.rows {
		r := &t.rows[i]
		if (match == nil || match(r.data)) && snap.RowVisible(r.xmin, r.xmax) {
			if !fn(r.id, r.data) {
				return
			}
		}
	}
}

// retire stamps xid, under the stamp rule, on every version Select
// would pass fn, and returns them. Judging and stamping happen under one
// lock, so no other writer slips in between; if the rule refuses any
// version, none is stamped.
func (t *SysTable) retire(snap tx.Snapshot, xid tx.XID, match func(types.Row) bool) ([]sysRow, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var hits []int
	for i := range t.rows {
		r := t.rows[i] // a copy: the rule judges every version before any is stamped
		if (match == nil || match(r.data)) && snap.RowVisible(r.xmin, r.xmax) {
			if err := r.stamp(xid, snap.Aborted); err != nil {
				return nil, err
			}
			hits = append(hits, i)
		}
	}
	out := make([]sysRow, len(hits))
	for k, i := range hits {
		t.rows[i].xmax = xid
		out[k] = t.rows[i]
	}
	return out, nil
}

// redoStamp is WAL replay's stamp rule. Records arrive in LSN order, so
// whatever stamp the version holds is older than the logged one and is
// replaced. A version no longer stored (vacuumed) stays gone.
func (t *SysTable) redoStamp(xid tx.XID, id uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.byID[id]; ok {
		return t.rows[i].stamp(xid, func(tx.XID) bool { return true })
	}
	return nil
}

// Vacuum removes the versions no snapshot can see: those whose deleter
// is visible to the horizon, and those whose creator aborted. It returns
// the number of versions reclaimed.
func (t *SysTable) Vacuum(horizon tx.Snapshot) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.rows[:0]
	removed := 0
	for _, r := range t.rows {
		if (r.xmax != tx.InvalidXID && horizon.XidVisible(r.xmax)) || horizon.Aborted(r.xmin) {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	t.rows = kept
	t.kept = len(kept)
	t.reindexLocked()
	return removed
}

// needsVacuum reports whether the stored versions have grown past twice
// what the last Vacuum kept: a write that finds it so reclaims, which
// costs O(1) per write amortized, and a table whose versions an old
// snapshot pins doubles before the next try.
func (t *SysTable) needsVacuum() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows) > 2*t.kept
}

// reindexLocked rebuilds the row-ID index after compaction. Callers hold
// t.mu.
func (t *SysTable) reindexLocked() {
	t.byID = make(map[uint64]int, len(t.rows))
	for i := range t.rows {
		t.byID[t.rows[i].id] = i
	}
}

// state returns a copy of the versions plus the next row ID (snapshot
// serialization).
func (t *SysTable) state() ([]sysRow, uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rows := make([]sysRow, len(t.rows))
	copy(rows, t.rows)
	return rows, t.nextRow
}

// restore replaces the table contents (checkpoint restore). Rows are
// cloned; the index is rebuilt.
func (t *SysTable) restore(rows []sysRow, nextRow uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = make([]sysRow, len(rows))
	for i, r := range rows {
		r.data = r.data.Clone()
		t.rows[i] = r
	}
	if nextRow < 1 {
		nextRow = 1
	}
	t.nextRow = nextRow
	t.reindexLocked()
}

// discardUncommitted removes versions created by transactions that are
// not committed and clears delete stamps from such transactions
// (promotion fencing: the failed primary's in-flight work must vanish).
// It returns the number of versions touched.
func (t *SysTable) discardUncommitted(committed func(tx.XID) bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.rows[:0]
	n := 0
	for _, r := range t.rows {
		if !committed(r.xmin) {
			n++
			continue
		}
		if r.xmax != tx.InvalidXID && !committed(r.xmax) {
			r.xmax = tx.InvalidXID
			n++
		}
		kept = append(kept, r)
	}
	t.rows = kept
	t.reindexLocked()
	return n
}

// Len returns the number of stored row versions (all, not just visible).
func (t *SysTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}
