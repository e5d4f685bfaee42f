package cluster

import (
	"fmt"
	"maps"
	"sync"

	"hawq/internal/catalog"
	"hawq/internal/storage"
	"hawq/internal/tx"
)

// laneManager assigns swimming lanes (§5.4): each concurrent insert
// transaction on a table gets its own segno, so writers append to
// disjoint HDFS files and never interfere. Lanes are reusable after the
// owning transaction finishes — files are appended by later transactions,
// so the number of files stays bounded.
type laneManager struct {
	mu sync.Mutex
	// busy maps tableOID -> segno -> owning xid.
	busy map[int64]map[int]tx.XID
}

func newLaneManager() *laneManager {
	return &laneManager{busy: map[int64]map[int]tx.XID{}}
}

// acquire picks the lowest free lane for a table that usable accepts
// (nil accepts any), which also prefers lanes whose files already
// exist. A transaction that already holds a lane of the table gets it
// back, with held set. usable runs under the manager's lock, so no
// other writer can take the lane it judges before it is ours.
func (lm *laneManager) acquire(tableOID int64, xid tx.XID, usable func(segno int) bool) (segno int, held bool) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lanes := lm.busy[tableOID]
	if lanes == nil {
		lanes = map[int]tx.XID{}
		lm.busy[tableOID] = lanes
	}
	for segno, owner := range lanes {
		if owner == xid {
			return segno, true
		}
	}
	segno = 1
	//hawqcheck:ignore ctxflow — bounded by the busy lanes and the lanes in the catalog: every lane past both is free and usable
	for {
		if _, taken := lanes[segno]; !taken && (usable == nil || usable(segno)) {
			break
		}
		segno++
	}
	lanes[segno] = xid
	return segno, false
}

// release frees a lane at transaction end.
func (lm *laneManager) release(tableOID int64, segno int) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if lanes := lm.busy[tableOID]; lanes != nil {
		delete(lanes, segno)
		if len(lanes) == 0 {
			delete(lm.busy, tableOID)
		}
	}
}

// LanePath is the HDFS path of a table lane on a segment: each segment
// has its own directory (§2.3).
func LanePath(tableOID int64, segID, segno int) string {
	return fmt.Sprintf("/hawq/data/%d/%d/%d", tableOID, segID, segno)
}

// AcquireLane reserves a lane on every segment for an insert transaction:
// existing lane files are reused (and their uncommitted garbage truncated
// away, §5), missing ones are registered in the catalog. It returns the
// per-segment lane files at their committed lengths and arranges release
// at transaction end.
//
// A lane's committed length is where its files end, so it is read
// through a snapshot taken once the lane is ours, whatever t's
// isolation level: an older length would truncate committed rows away.
// A serializable transaction takes only a lane its own snapshot sees in
// that same state; appending behind a commit it cannot see would show
// it that commit's rows.
func (c *Cluster) AcquireLane(t *tx.Tx, desc *catalog.TableDesc) (int, map[int]catalog.SegFile, error) {
	var usable func(segno int) bool
	if t.Level() == tx.Serializable {
		usable = func(segno int) bool {
			return maps.EqualFunc(c.Cat().LaneSegFiles(t.Snapshot(), desc.OID, segno), c.Cat().LaneSegFiles(t.LatestSnapshot(), desc.OID, segno),
				func(a, b catalog.SegFile) bool { return a.LogicalLen == b.LogicalLen && a.Tuples == b.Tuples })
		}
	}
	segno, held := c.lanes.acquire(desc.OID, t.XID(), usable)
	committed := c.Cat().LaneSegFiles(t.LatestSnapshot(), desc.OID, segno)
	if held {
		// The transaction's first acquire registered the lane's files
		// and the hooks that release it and roll it back to where it
		// stood before the transaction; its own appends end the files.
		return segno, committed, nil
	}
	// Exactly one of the two runs; an abort runs it after the truncate
	// below, so the lane changes hands only once its garbage is gone.
	release := func() { c.lanes.release(desc.OID, segno) }
	t.OnCommit(release)
	t.OnAbort(release)

	files := make(map[int]catalog.SegFile, len(c.segments))
	for segID := range c.segments {
		sf, found := committed[segID]
		if !found {
			sf = catalog.SegFile{
				TableOID:  desc.OID,
				SegmentID: segID,
				SegNo:     segno,
				Path:      LanePath(desc.OID, segID, segno),
			}
			if err := c.Cat().AddSegFile(t, sf); err != nil {
				return 0, nil, err
			}
		}
		// Truncate garbage left by an aborted writer beyond the
		// committed logical length (§5: "the garbage data needs to be
		// truncated before next write to the file").
		if err := c.truncateToLogical(desc, sf); err != nil {
			return 0, nil, err
		}
		files[segID] = sf
	}
	// Roll back the physical appends if this transaction aborts (§5.3).
	preImage := maps.Clone(files)
	descCopy := *desc
	t.OnAbort(func() {
		for _, sf := range preImage {
			// Best-effort rollback: bytes past the logical length are
			// invisible to readers, so a failed truncate is retried by
			// the next writer of this lane.
			//hawqcheck:ignore errdrop
			c.truncateToLogical(&descCopy, sf)
		}
	})
	return segno, files, nil
}

// truncateToLogical trims a lane's physical files back to the committed
// logical lengths, using the HDFS truncate operation (§5.3).
func (c *Cluster) truncateToLogical(desc *catalog.TableDesc, sf catalog.SegFile) error {
	for _, f := range storage.LaneFiles(desc.Storage, desc.Schema.Len(), sf) {
		st, err := c.FS.Stat(f.Path)
		if err != nil {
			continue // never materialized
		}
		if st.Length > f.Len {
			if err := c.FS.Truncate(f.Path, f.Len); err != nil {
				return err
			}
		}
	}
	return nil
}
