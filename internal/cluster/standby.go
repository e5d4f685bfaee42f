package cluster

import (
	"fmt"
	"sync"

	"hawq/internal/catalog"
	"hawq/internal/tx"
)

// Standby is the warm standby master (§2.6): it holds a catalog replica
// bootstrapped from a catalog snapshot and kept current by WAL log
// shipping, with LSN-gap detection — a skipped record means the replica
// has silently diverged and must not be promoted.
type Standby struct {
	Cat *catalog.Catalog

	mu      sync.Mutex
	err     error
	subID   int
	lastLSN uint64
	// pending holds the records shipped while the standby bootstraps; it
	// is nil once they are applied and records apply as they arrive.
	pending []tx.Record
}

// Err returns the first WAL-replay error, if any. A standby with a
// non-nil Err has diverged and must be rebuilt before promotion.
func (sb *Standby) Err() error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.err
}

// LastLSN returns the last log record the standby applied.
func (sb *Standby) LastLSN() uint64 {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.lastLSN
}

// recordErr keeps the first replay failure.
func (sb *Standby) recordErr(err error) {
	if err == nil {
		return
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.err == nil {
		sb.err = err
	}
}

// receive is the standby's WAL subscription: while the standby
// bootstraps it buffers, afterwards it applies.
func (sb *Standby) receive(r tx.Record) {
	sb.mu.Lock()
	if sb.pending != nil {
		sb.pending = append(sb.pending, r)
		sb.mu.Unlock()
		return
	}
	sb.mu.Unlock()
	sb.apply(r)
}

// takePending hands over the records buffered so far. Once none are
// left it ends the bootstrap: records apply as they arrive.
func (sb *Standby) takePending() []tx.Record {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	buf := sb.pending
	if len(buf) == 0 {
		sb.pending = nil
		return nil
	}
	sb.pending = []tx.Record{}
	return buf
}

// apply replays one shipped record, checking LSN continuity. A record
// shipped during the bootstrap may already be in the snapshot; replay is
// idempotent, so applying it again changes nothing. An LSN at or below
// the watermark is skipped, while a gap marks the replica diverged.
func (sb *Standby) apply(r tx.Record) {
	sb.mu.Lock()
	if r.LSN <= sb.lastLSN {
		sb.mu.Unlock()
		return
	}
	if sb.lastLSN != 0 && r.LSN != sb.lastLSN+1 {
		sb.mu.Unlock()
		sb.recordErr(fmt.Errorf("cluster: standby LSN gap: got %d after %d", r.LSN, sb.lastLSN))
		return
	}
	sb.lastLSN = r.LSN
	sb.mu.Unlock()
	sb.recordErr(sb.Cat.ApplyRecord(r))
}

// StartStandby attaches a standby master: it subscribes to the WAL,
// buffering what arrives, bootstraps from a full-fidelity catalog
// snapshot, applies the buffer, then applies records as they stream.
// Calling it again after a promotion attaches a fresh standby to the new
// primary epoch.
func (c *Cluster) StartStandby() *Standby {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.standby != nil {
		return c.standby
	}
	// The catalog changes a row before it logs the change, so whatever
	// was logged before the subscription is in the snapshot taken after
	// it, and whatever is logged after it is in the buffer.
	sb := &Standby{Cat: catalog.New(nil), pending: []tx.Record{}}
	sb.subID = c.WAL().Subscribe(sb.receive)
	// Copy the primary catalog verbatim: uncommitted versions included —
	// the shared CLOG governs visibility.
	if _, err := sb.Cat.RestoreSnapshot(c.Cat().Snapshot(nil, nil)); err != nil {
		sb.recordErr(err)
	}
	for buf := sb.takePending(); buf != nil; buf = sb.takePending() {
		for _, r := range buf {
			sb.apply(r)
		}
	}
	c.standby = sb
	return sb
}

// HasStandby reports whether a standby is attached.
func (c *Cluster) HasStandby() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.standby != nil
}

// Promote makes the standby's catalog the cluster's active catalog (the
// failover path when the primary master host dies). Correctness under a
// mid-transaction crash requires four steps, in order: detach the
// standby's WAL subscription (a leftover subscription double-applies
// every new record into the active catalog), abort the failed primary's
// in-flight transactions in the CLOG, purge their row versions from the
// promoted replica, and start a fresh WAL epoch continuing the LSN
// sequence so late-attaching standbys see no gap. The old durable log
// belongs to the dead primary's host and is not carried over; wiring a
// new wal.Disk into the promoted master is a deployment concern.
func (c *Cluster) Promote() {
	c.mu.Lock()
	if c.standby == nil {
		c.mu.Unlock()
		return
	}
	sb := c.standby
	c.standby = nil
	c.WAL().Unsubscribe(sb.subID)
	c.TxMgr.AbortInFlight()
	sb.Cat.DiscardUncommitted(func(x tx.XID) bool {
		return c.TxMgr.StatusOf(x) == tx.StatusCommitted
	})
	w := tx.NewWALAt(nil, sb.LastLSN()+1)
	sb.Cat.SetWAL(w)
	c.TxMgr.AttachWAL(w)
	// The promoted replica takes over the mutation hook so its future
	// catalog writes keep bumping the plan-cache version.
	sb.Cat.SetMutationHook(c.TxMgr.MarkCatalogChange)
	c.cat.Store(sb.Cat)
	c.wal.Store(w)
	c.mu.Unlock()
	// Outside the lock: the hook (the engine's task-scheduler resume)
	// may open transactions against the promoted catalog.
	if fn := c.promoteHook.Load(); fn != nil {
		(*fn)()
	}
}
