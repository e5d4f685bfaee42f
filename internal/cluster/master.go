package cluster

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"hawq/internal/catalog"
	"hawq/internal/clock"
	"hawq/internal/obs"
	"hawq/internal/tx"
	"hawq/internal/wal"
)

var (
	ckptDurationMs     = obs.GetCounter("wal.checkpoint_ms")
	ckptErrors         = obs.GetCounter("wal.checkpoint_errors")
	recoveryDurationMs = obs.GetCounter("wal.recovery_ms")
	recoveryCommits    = obs.GetCounter("wal.recovered_commits")
	recoveryDiscards   = obs.GetCounter("wal.discarded_txns")
)

// MasterOptions configures the master's catalog durability. The zero
// value is a volatile in-memory master (no Disk).
type MasterOptions struct {
	// Disk persists the WAL; nil keeps it in memory only.
	Disk wal.Disk
	// SegmentBytes, GroupWindow: see wal.Options.
	SegmentBytes int
	GroupWindow  time.Duration
	// CheckpointEvery checkpoints the catalog after this many WAL
	// records (0: no automatic checkpoints).
	CheckpointEvery int
	// Clock times recovery, checkpoints, and the group-commit window.
	Clock clock.Clock
}

// RecoveryStats reports what boot-time ARIES-lite recovery did.
type RecoveryStats struct {
	// Ran is false for a volatile master (nothing to recover).
	Ran bool
	// CheckpointLSN is the redo-start LSN of the restored checkpoint
	// (0 when recovery started from an empty or checkpoint-less log).
	CheckpointLSN uint64
	// RecordsScanned counts intact log records examined.
	RecordsScanned int
	// RecordsReplayed counts insert/delete records applied to the
	// catalog (committed transactions at or past the redo point).
	RecordsReplayed int
	// CommittedTxns counts distinct transactions redone.
	CommittedTxns int
	// DiscardedTxns counts in-flight transactions discarded (they had
	// records but no commit record survived).
	DiscardedTxns int
	// TornBytes counts trailing garbage truncated from the log.
	TornBytes int
	// Duration is the wall (or simulated) recovery time.
	Duration time.Duration
}

// Master bundles the master-resident catalog state: the catalog, the
// transaction manager, the shipping WAL and (for durable masters) the
// on-disk log beneath it. cluster.New embeds one; the crash harness
// opens a bare Master so it can crash and recover without sockets.
type Master struct {
	Cat   *catalog.Catalog
	TxMgr *tx.Manager
	WAL   *tx.WAL
	// Log is the durable log, nil for a volatile master.
	Log *wal.Log
	// Recovery reports what recovery found at open.
	Recovery RecoveryStats

	clk        clock.Clock
	ckptEvery  uint64
	ckptBusy   atomic.Bool
	lastCkptAt atomic.Uint64 // total record count at the last checkpoint
}

// OpenMaster builds the master state. With a Disk it first runs
// ARIES-lite recovery: mount the log (torn tail truncated), restore the
// newest checkpoint snapshot, redo every committed transaction's
// records at or past the redo LSN, and discard in-flight transactions —
// exactly the committed prefix survives, nothing else.
func OpenMaster(o MasterOptions) (*Master, error) {
	clk := clock.Default(o.Clock)
	if o.Disk == nil {
		w := tx.NewWAL()
		cat := catalog.New(w)
		mgr := tx.NewManager()
		mgr.AttachWAL(w)
		return &Master{Cat: cat, TxMgr: mgr, WAL: w, clk: clk}, nil
	}
	start := clk.Now()
	log, recd, err := wal.Open(o.Disk, wal.Options{
		SegmentBytes: o.SegmentBytes,
		GroupWindow:  o.GroupWindow,
		Clock:        clk,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: wal recovery: %w", err)
	}

	committed := map[tx.XID]bool{}
	dirty := map[tx.XID]bool{}
	var maxXID tx.XID
	for _, r := range recd.Records {
		maxXID = max(maxXID, r.XID)
		switch r.Type {
		case tx.RecCommit:
			committed[r.XID] = true
			delete(dirty, r.XID)
		case tx.RecAbort:
			delete(dirty, r.XID)
		case tx.RecInsert, tx.RecDelete:
			if !committed[r.XID] {
				dirty[r.XID] = true
			}
		}
	}

	cat := catalog.New(nil)
	var floor tx.XID
	if recd.Snapshot != nil {
		floor, err = cat.RestoreSnapshot(recd.Snapshot)
		if err != nil {
			return nil, fmt.Errorf("cluster: checkpoint restore: %w", err)
		}
	}
	replayed := 0
	for _, r := range recd.Records {
		if recd.RedoLSN > 0 && r.LSN < recd.RedoLSN {
			continue
		}
		if (r.Type == tx.RecInsert || r.Type == tx.RecDelete) && committed[r.XID] {
			if err := cat.ApplyRecord(r); err != nil {
				return nil, fmt.Errorf("cluster: redo LSN %d: %w", r.LSN, err)
			}
			replayed++
		}
	}

	// The next XID must clear every XID the log has ever seen — reusing
	// an in-flight transaction's XID would let its orphaned records be
	// adopted by a future commit.
	mgr := tx.NewManagerAt(max(maxXID+1, floor))
	for xid := range committed {
		mgr.MarkCommitted(xid)
	}

	w := tx.NewWALAt(log, log.LastLSN()+1)
	cat.SetWAL(w)
	mgr.AttachWAL(w)
	m := &Master{
		Cat:   cat,
		TxMgr: mgr,
		WAL:   w,
		Log:   log,
		clk:   clk,
		Recovery: RecoveryStats{
			Ran:             true,
			CheckpointLSN:   recd.RedoLSN,
			RecordsScanned:  len(recd.Records),
			RecordsReplayed: replayed,
			CommittedTxns:   len(committed),
			DiscardedTxns:   len(dirty),
			TornBytes:       recd.TornBytes,
			Duration:        clk.Since(start),
		},
	}
	recoveryDurationMs.Add(m.Recovery.Duration.Milliseconds())
	recoveryCommits.Add(int64(len(committed)))
	recoveryDiscards.Add(int64(len(dirty)))
	if o.CheckpointEvery > 0 {
		m.ckptEvery = uint64(o.CheckpointEvery)
		m.lastCkptAt.Store(w.NextLSN() - 1)
		w.SetOnCommit(m.maybeCheckpoint)
	}
	return m, nil
}

// maybeCheckpoint runs after every durable commit; it checkpoints once
// enough records accumulated since the last one. Failures are counted,
// not fatal: the commit that triggered the checkpoint is already
// durable, and recovery simply replays a longer log.
func (m *Master) maybeCheckpoint(total uint64) {
	if total-m.lastCkptAt.Load() < m.ckptEvery {
		return
	}
	if !m.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	defer m.ckptBusy.Store(false)
	if err := m.Checkpoint(); err != nil {
		ckptErrors.Inc()
	}
}

// Checkpoint writes a catalog checkpoint: serialize the committed
// catalog, install it durably beside the log, log a checkpoint record,
// and truncate segments wholly below the redo point. Concurrent
// transactions keep running — in-flight effects are excluded from the
// snapshot and covered by the redo LSN instead.
func (m *Master) Checkpoint() error {
	if m.Log == nil {
		return nil
	}
	start := m.clk.Now()
	redo := m.WAL.RedoLSN()
	snap := m.Cat.Snapshot(m.TxMgr.NextXID, func(x tx.XID) bool {
		return m.TxMgr.StatusOf(x) == tx.StatusCommitted
	})
	if err := m.Log.WriteCheckpointFile(redo, snap); err != nil {
		return err
	}
	m.WAL.Append(tx.Record{Type: tx.RecCheckpoint, Data: binary.AppendUvarint(nil, redo)})
	if err := m.Log.Sync(); err != nil {
		return err
	}
	if err := m.Log.TruncateBelow(redo); err != nil {
		return err
	}
	m.lastCkptAt.Store(m.WAL.NextLSN() - 1)
	ckptDurationMs.Add(m.clk.Since(start).Milliseconds())
	return nil
}

// Close syncs and closes the durable log (graceful shutdown).
func (m *Master) Close() error {
	if m.Log == nil {
		return nil
	}
	return m.Log.Close()
}
