package cluster

import (
	"fmt"
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

// acquire picks the lowest free lane for a table, which also prefers
// lanes whose files already exist.
func (lm *laneManager) acquire(tableOID int64, xid tx.XID) int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lanes := lm.busy[tableOID]
	if lanes == nil {
		lanes = map[int]tx.XID{}
		lm.busy[tableOID] = lanes
	}
	segno := 1
	//hawqcheck:ignore ctxflow — bounded by the number of busy lanes; the map is finite and no iteration waits
	for {
		if _, taken := lanes[segno]; !taken {
			break
		}
		segno++
	}
	lanes[segno] = xid
	return segno
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
func (c *Cluster) AcquireLane(t *tx.Tx, desc *catalog.TableDesc) (int, map[int]catalog.SegFile, error) {
	segno := c.lanes.acquire(desc.OID, t.XID())
	// Read the lane's committed lengths only now that it is ours. The
	// previous owner releases it after its commit is visible, so a
	// snapshot taken from here on sees that commit; one taken before the
	// acquire may not, and truncating to its stale logical length would
	// destroy the previous owner's committed rows.
	snap := t.Snapshot()
	released := false
	release := func() {
		if !released {
			released = true
			c.lanes.release(desc.OID, segno)
		}
	}
	t.OnCommit(release)
	t.OnAbort(release)

	files := make(map[int]catalog.SegFile, len(c.segments))
	for segID := range c.segments {
		var sf catalog.SegFile
		found := false
		for _, f := range c.Cat().SegFiles(snap, desc.OID, segID) {
			if f.SegNo == segno {
				sf, found = f, true
				break
			}
		}
		if !found {
			sf = catalog.SegFile{
				TableOID:  desc.OID,
				SegmentID: segID,
				SegNo:     segno,
				Path:      LanePath(desc.OID, segID, segno),
			}
			c.Cat().AddSegFile(t, sf)
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
	preImage := make(map[int]catalog.SegFile, len(files))
	for k, v := range files {
		preImage[k] = v
	}
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
