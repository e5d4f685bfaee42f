package engine

import (
	"context"
	"fmt"
	"strings"

	"hawq/internal/catalog"
	"hawq/internal/cluster"
	"hawq/internal/hdfs"
	"hawq/internal/obs"
	"hawq/internal/storage"
	"hawq/internal/task"
	"hawq/internal/tx"
	"hawq/internal/types"
)

var (
	metCompactions    = obs.GetCounter("task.compactions")
	metCompactedBytes = obs.GetCounter("task.compacted_bytes")
)

// CompactTable merges the undersized files of each segment that has
// enough of them (task.Fragments) into one larger file under a
// transactional catalog swap (the background maintenance pass for §5.4's
// swimming lanes: every concurrent writer epoch leaves another small
// file behind). The merged file is written
// to a fresh segno first; the swap — delete the small files' catalog
// rows, insert the merged row — happens in one transaction, so readers
// see either the old set or the new file, never a mix. On abort the
// merged HDFS file is removed; the old files' bytes are untouched until
// after commit.
//
// Like every statement it runs through the session lifecycle, as an
// autocommit statement of a fresh session under ctx.
func (e *Engine) CompactTable(ctx context.Context, name string) error {
	s := e.NewSession()
	_, err := s.runTransactional(ctx, statementText("COMPACT "+name), func(ctx context.Context, t *tx.Tx) (*Result, error) {
		return nil, s.compactInTx(ctx, t, name)
	})
	return err
}

func (s *Session) compactInTx(ctx context.Context, t *tx.Tx, name string) error {
	cat := s.eng.cl.Cat()
	name = strings.ToLower(name)
	desc, err := cat.LookupTable(t.Snapshot(), name)
	if err != nil {
		return err
	}
	if desc.IsExternal() {
		return fmt.Errorf("engine: cannot compact external table %s", name)
	}
	if desc.IsPartitionParent() {
		return fmt.Errorf("engine: compact partition children of %s individually", name)
	}
	// Compaction rewrites committed data, so it excludes writers AND
	// readers for its (short) duration; the lock is released at commit.
	if err := s.eng.cl.Locks.Acquire(t.XID(), name, tx.AccessExclusive); err != nil {
		return err
	}
	fs := s.eng.cl.FS
	for _, files := range task.Fragments(cat.AllSegFiles(t.Snapshot(), desc.OID)) {
		segID := files[0].SegmentID
		if err := ctx.Err(); err != nil {
			return err
		}
		merged, err := s.mergeSegFiles(ctx, t, desc, segID, files)
		if err != nil {
			return err
		}
		var segnos []int
		var oldBytes, oldTuples int64
		for _, f := range files {
			segnos = append(segnos, f.SegNo)
			oldBytes += f.LogicalLen
			oldTuples += f.Tuples
		}
		if merged.Tuples != oldTuples {
			return fmt.Errorf("engine: compaction of %s segment %d rewrote %d tuples, expected %d",
				name, segID, merged.Tuples, oldTuples)
		}
		if err := cat.SwapSegFiles(t, desc.OID, segID, segnos, merged); err != nil {
			return err
		}
		old := files
		t.OnCommit(func() {
			// The old small files are dead once the swap is visible;
			// removal is best-effort cleanup (a leak, not corruption, if
			// it fails — lane reuse truncates stale bytes anyway).
			for _, f := range old {
				deleteSegFilePhysical(fs, desc, f)
			}
			metCompactions.Inc()
			metCompactedBytes.Add(oldBytes)
		})
	}
	return nil
}

// mergeSegFiles rewrites a set of small files into one new file at a
// fresh segno, registering abort-time cleanup of the new bytes.
func (s *Session) mergeSegFiles(ctx context.Context, t *tx.Tx, desc *catalog.TableDesc, segID int, files []catalog.SegFile) (catalog.SegFile, error) {
	fs := s.eng.cl.FS
	segno := s.eng.cl.Cat().MaxSegNo(t.Snapshot(), desc.OID, segID) + 1
	merged := catalog.SegFile{
		TableOID:  desc.OID,
		SegmentID: segID,
		SegNo:     segno,
		Path:      cluster.LanePath(desc.OID, segID, segno),
	}
	// A stale physical file can linger at the fresh path if an earlier
	// compaction aborted and its cleanup failed; start from nothing.
	deleteSegFilePhysical(fs, desc, merged)
	w, err := storage.NewWriter(fs, desc.Storage, desc.Schema, merged,
		hdfs.CreateOptions{Writer: fmt.Sprintf("compact-%d-%d", desc.OID, segID)})
	if err != nil {
		return merged, err
	}
	t.OnAbort(func() {
		// Roll the new HDFS bytes back so an aborted compaction leaves
		// no orphaned files (best-effort; see OnCommit cleanup).
		deleteSegFilePhysical(fs, desc, merged)
	})
	for _, f := range files {
		err := storage.Scan(fs, desc.Storage, desc.Schema, f, desc.Schema.AllCols(), func(row types.Row) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return w.Append(row)
		})
		if err != nil {
			//hawqcheck:ignore errdrop — already failing; Close only flushes more garbage
			w.Close()
			return merged, err
		}
	}
	if err := w.Close(); err != nil {
		return merged, err
	}
	merged.LogicalLen, merged.ColLens = w.Lens()
	merged.Tuples = w.Tuples()
	merged.Stats = w.Stats()
	return merged, nil
}

// deleteSegFilePhysical removes every HDFS file of a segment file's lane.
func deleteSegFilePhysical(fs *hdfs.FileSystem, desc *catalog.TableDesc, sf catalog.SegFile) {
	for _, f := range storage.LaneFiles(desc.Storage, desc.Schema.Len(), sf) {
		// Best-effort: a missing file is fine, a leaked one is a leak.
		//hawqcheck:ignore errdrop
		fs.Delete(f.Path, false)
	}
}
