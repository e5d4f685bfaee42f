// Package tx implements HAWQ's transaction machinery (§5): transaction
// ID allocation, a commit log (CLOG) tracking per-transaction status,
// MVCC snapshots with the read-committed and serializable isolation
// levels, a write-ahead log with standby log shipping (§2.6), and a lock
// manager with deadlock detection (§5.2).
//
// As in the paper, transactions exist only on the master: segments are
// stateless, commits happen on the master only, and there is no
// distributed commit protocol. User data on HDFS is append-only; its
// visibility is controlled by logical file lengths recorded in the
// catalog, which are themselves MVCC rows covered by this package.
package tx

import (
	"errors"
	"fmt"
	"sync"
)

// XID is a transaction identifier. 0 is invalid; 1 is the bootstrap
// transaction that creates the initial catalog.
type XID uint64

// InvalidXID is the zero transaction ID.
const InvalidXID XID = 0

// BootstrapXID is the transaction that loads the initial catalog.
const BootstrapXID XID = 1

// Status is a transaction's state in the commit log.
type Status uint8

// Transaction states.
const (
	StatusInProgress Status = iota
	StatusCommitted
	StatusAborted
)

// IsolationLevel selects snapshot behavior. HAWQ internally supports read
// committed and serializable; read uncommitted maps to read committed and
// repeatable read maps to serializable (§5.1).
type IsolationLevel uint8

// Supported isolation levels.
const (
	ReadCommitted IsolationLevel = iota
	Serializable
)

// ParseIsolationLevel maps the four SQL standard levels onto the two
// internal ones.
func ParseIsolationLevel(s string) (IsolationLevel, error) {
	switch s {
	case "read committed", "read uncommitted":
		return ReadCommitted, nil
	case "serializable", "repeatable read":
		return Serializable, nil
	}
	return 0, fmt.Errorf("tx: unknown isolation level %q", s)
}

// String returns the SQL spelling of the isolation level.
func (l IsolationLevel) String() string {
	if l == Serializable {
		return "serializable"
	}
	return "read committed"
}

// ErrAborted is returned when operating inside an aborted transaction.
var ErrAborted = errors.New("tx: transaction is aborted")

// Manager allocates transaction IDs, tracks their status, and builds
// snapshots. It lives on the master node only.
type Manager struct {
	mu      sync.Mutex
	nextXID XID
	status  map[XID]Status
	// running maps each running transaction to the lowest XID running
	// when it began (its own if none was lower): no snapshot it takes
	// can count an older XID as running (see Horizon).
	running map[XID]XID
	// floor: transactions below it are committed unless the status map
	// says otherwise. A manager restored from a checkpoint cannot carry
	// the full CLOG; every XID the snapshot could reference is < floor
	// and either committed (its rows are in the snapshot) or aborted
	// with no surviving rows, so "committed" is the safe default.
	floor XID
	wal   *WAL // optional durable log; commits flush through it
	// catVer counts committed catalog changes that can invalidate cached
	// plans. It is bumped inside finish(), under the same mutex that
	// builds snapshots, so a snapshot and its CatVer are captured
	// atomically: equal CatVer values imply identical plan-relevant
	// catalog views.
	catVer uint64
	// catDirty marks in-progress transactions that have written
	// plan-relevant catalog rows; commit bumps catVer, abort just clears.
	catDirty map[XID]struct{}
}

// NewManager creates a transaction manager. The bootstrap transaction is
// pre-committed.
func NewManager() *Manager {
	return &Manager{
		nextXID:  BootstrapXID + 1,
		status:   map[XID]Status{BootstrapXID: StatusCommitted},
		running:  map[XID]XID{},
		catDirty: map[XID]struct{}{},
	}
}

// NewManagerAt creates a manager for a recovered master: XIDs resume at
// nextXID and every XID below it is treated as committed. Recovery marks
// replayed commits explicitly via MarkCommitted (a no-op under the floor,
// but kept for clarity and for XIDs at or past it).
func NewManagerAt(nextXID XID) *Manager {
	if nextXID <= BootstrapXID {
		nextXID = BootstrapXID + 1
	}
	return &Manager{
		nextXID:  nextXID,
		status:   map[XID]Status{BootstrapXID: StatusCommitted},
		running:  map[XID]XID{},
		floor:    nextXID,
		catDirty: map[XID]struct{}{},
	}
}

// MarkCatalogChange records that xid wrote a plan-relevant catalog row.
// If xid later commits, the manager's catalog version is bumped in the
// same critical section that flips the CLOG, so no snapshot can observe
// the new catalog contents under the old version.
func (m *Manager) MarkCatalogChange(xid XID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.catDirty[xid] = struct{}{}
}

// IsCatalogDirty reports whether xid has uncommitted plan-relevant
// catalog writes. Sessions bypass the plan cache while their own
// transaction is dirty: the writes are visible to the transaction's
// snapshots but not reflected in catVer until commit.
func (m *Manager) IsCatalogDirty(xid XID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.catDirty[xid]
	return ok
}

// CatVer returns the current catalog version (for observability; plan
// cache lookups use the CatVer captured in their snapshot).
func (m *Manager) CatVer() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.catVer
}

// NextXID returns the next XID to be assigned (checkpoint floor).
func (m *Manager) NextXID() XID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextXID
}

// MarkCommitted records xid as committed in the CLOG (recovery replay).
func (m *Manager) MarkCommitted(xid XID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.status[xid] = StatusCommitted
	if xid >= m.nextXID {
		m.nextXID = xid + 1
	}
}

// AttachWAL routes commits and aborts through w: Commit becomes durable
// (the commit record is fsynced before the CLOG flips) and Abort logs an
// abort record. Pass nil to detach.
func (m *Manager) AttachWAL(w *WAL) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.wal = w
}

func (m *Manager) walRef() *WAL {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wal
}

// AbortInFlight aborts every running transaction in the CLOG and returns
// the victims. Promotion uses it to fence the failed primary's open
// transactions: their handles still exist in dying sessions, but any
// later Commit on them reports ErrAborted. Callbacks registered on the
// handles do not run — the sessions that own them are gone.
func (m *Manager) AbortInFlight() []XID {
	m.mu.Lock()
	out := make([]XID, 0, len(m.running))
	for x := range m.running {
		m.status[x] = StatusAborted
		delete(m.running, x)
		delete(m.catDirty, x)
		out = append(out, x)
	}
	w := m.wal
	m.mu.Unlock()
	if w != nil {
		for _, x := range out {
			w.clearDirty(x)
		}
	}
	return out
}

// Begin starts a transaction and returns its handle.
func (m *Manager) Begin(level IsolationLevel) *Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	xid := m.nextXID
	m.nextXID++
	m.status[xid] = StatusInProgress
	low := xid
	for x := range m.running {
		low = min(low, x)
	}
	m.running[xid] = low
	t := &Tx{mgr: m, xid: xid, level: level}
	if level == Serializable {
		s := m.snapshotLocked(xid)
		t.serialSnap = &s
	}
	return t
}

// StatusOf returns a transaction's CLOG status. XIDs below the recovery
// floor default to committed (see NewManagerAt).
func (m *Manager) StatusOf(xid XID) Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.statusLocked(xid)
}

func (m *Manager) statusLocked(xid XID) Status {
	if s, ok := m.status[xid]; ok {
		return s
	}
	if xid != InvalidXID && xid < m.floor {
		return StatusCommitted
	}
	return StatusInProgress
}

// finish transitions xid to s if it is still in progress and returns the
// resulting status — callers learn whether they won the transition or the
// transaction was already finished (e.g. aborted by AbortInFlight).
func (m *Manager) finish(xid XID, s Status) Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.statusLocked(xid) == StatusInProgress {
		m.status[xid] = s
		delete(m.running, xid)
		if _, dirty := m.catDirty[xid]; dirty {
			delete(m.catDirty, xid)
			if s == StatusCommitted {
				m.catVer++
			}
		}
		return s
	}
	return m.statusLocked(xid)
}

// Horizon returns the vacuum horizon: a snapshot to which a transaction
// is visible only if it committed and is older than every XID a running
// transaction's snapshot can count as running. That is the lowest XID
// any running transaction saw running at its Begin, not the lowest one
// running now: a statement snapshot may list an older XID that has
// committed since. Row versions whose deleter is visible to the horizon
// can be reclaimed — no present or future snapshot can need them.
func (m *Manager) Horizon() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	low := m.nextXID
	for _, x := range m.running {
		low = min(low, x)
	}
	return Snapshot{XMax: low, Running: map[XID]struct{}{}, mgr: m}
}

// snapshotLocked builds a snapshot of running transactions. Callers hold
// m.mu.
func (m *Manager) snapshotLocked(cur XID) Snapshot {
	running := make(map[XID]struct{}, len(m.running))
	for x := range m.running {
		if x != cur {
			running[x] = struct{}{}
		}
	}
	return Snapshot{XMax: m.nextXID, Running: running, Cur: cur, CatVer: m.catVer, mgr: m}
}

// Snapshot is the set of transaction effects visible to a statement. A
// transaction is visible if it committed before the snapshot was taken.
type Snapshot struct {
	// XMax is the first unassigned XID at snapshot time.
	XMax XID
	// Running are transactions in progress at snapshot time.
	Running map[XID]struct{}
	// Cur is the observing transaction (its own effects are visible).
	Cur XID
	// CatVer is the manager's catalog version at snapshot time, captured
	// under the same mutex that fixes the Running set. Two snapshots with
	// equal CatVer see identical plan-relevant catalog contents, which
	// makes it a sound plan-cache key component.
	CatVer uint64
	mgr    *Manager
}

// XidVisible reports whether effects of xid are visible.
func (s Snapshot) XidVisible(xid XID) bool {
	if xid == s.Cur {
		return true
	}
	if xid >= s.XMax {
		return false
	}
	if _, ok := s.Running[xid]; ok {
		return false
	}
	return s.mgr.StatusOf(xid) == StatusCommitted
}

// RowVisible applies the MVCC visibility rule to a row version stamped
// with creating (xmin) and deleting (xmax) transactions.
func (s Snapshot) RowVisible(xmin, xmax XID) bool {
	if !s.XidVisible(xmin) {
		return false
	}
	if xmax == InvalidXID {
		return true
	}
	return !s.XidVisible(xmax)
}

// Aborted reports whether xid has aborted. Unlike visibility it does
// not depend on when the snapshot was taken: an abort is final, and a
// row version an aborted transaction stamped deleted is live again.
func (s Snapshot) Aborted(xid XID) bool { return s.mgr.StatusOf(xid) == StatusAborted }

// Tx is one transaction's handle.
type Tx struct {
	mgr   *Manager
	xid   XID
	level IsolationLevel
	// serialSnap is the fixed snapshot for serializable transactions,
	// taken at BEGIN.
	serialSnap *Snapshot

	mu       sync.Mutex
	done     bool
	aborted  bool
	onCommit []func()
	onAbort  []func()
}

// XID returns the transaction ID.
func (t *Tx) XID() XID { return t.xid }

// Level returns the isolation level.
func (t *Tx) Level() IsolationLevel { return t.level }

// Snapshot returns the snapshot governing the next statement: a fresh one
// per statement under read committed, the BEGIN-time one under
// serializable (§5.1).
func (t *Tx) Snapshot() Snapshot {
	if t.level == Serializable {
		return *t.serialSnap
	}
	return t.LatestSnapshot()
}

// Horizon returns the manager's vacuum horizon (see Manager.Horizon).
func (t *Tx) Horizon() Snapshot { return t.mgr.Horizon() }

// LatestSnapshot returns a snapshot taken now, whatever the isolation
// level: what a write to state every transaction shares must read. A
// swimming lane's committed length is where its file ends, not what
// this transaction's statements see.
func (t *Tx) LatestSnapshot() Snapshot {
	t.mgr.mu.Lock()
	defer t.mgr.mu.Unlock()
	return t.mgr.snapshotLocked(t.xid)
}

// OnCommit registers a callback run after the transaction commits
// (e.g. updating segment file logical lengths already happened; callbacks
// release resources).
func (t *Tx) OnCommit(f func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onCommit = append(t.onCommit, f)
}

// OnAbort registers a callback run when the transaction aborts; HAWQ uses
// this to truncate garbage appended to HDFS segment files (§5.3).
func (t *Tx) OnAbort(f func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onAbort = append(t.onAbort, f)
}

// Commit commits the transaction. With a WAL attached to the manager the
// commit record is forced to stable storage before the CLOG flips — the
// write-ahead rule: no observer may see the transaction as committed
// until a crash could no longer lose it. A durability failure aborts the
// transaction and is reported to the caller.
func (t *Tx) Commit() error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		if t.aborted {
			return ErrAborted
		}
		return nil
	}
	t.done = true
	commitCbs := t.onCommit
	abortCbs := t.onAbort
	t.mu.Unlock()
	if t.mgr.StatusOf(t.xid) != StatusInProgress {
		// Externally aborted (AbortInFlight during promotion) before we
		// claimed the commit: surface the abort and clean up.
		t.setAborted()
		runAbortCbs(abortCbs)
		return ErrAborted
	}
	w := t.mgr.walRef()
	if w != nil {
		if err := w.LogCommit(t.xid); err != nil {
			t.setAborted()
			t.mgr.finish(t.xid, StatusAborted)
			w.clearDirty(t.xid)
			runAbortCbs(abortCbs)
			return fmt.Errorf("tx: commit not durable: %w", err)
		}
	}
	got := t.mgr.finish(t.xid, StatusCommitted)
	// Only now that the CLOG shows the final state may the WAL stop
	// covering this transaction's records in checkpoint redo accounting
	// (see WAL.clearDirty).
	if w != nil {
		w.clearDirty(t.xid)
	}
	if got != StatusCommitted {
		t.setAborted()
		runAbortCbs(abortCbs)
		return ErrAborted
	}
	for _, f := range commitCbs {
		f()
	}
	return nil
}

func (t *Tx) setAborted() {
	t.mu.Lock()
	t.aborted = true
	t.mu.Unlock()
}

func runAbortCbs(cbs []func()) {
	for i := len(cbs) - 1; i >= 0; i-- {
		cbs[i]()
	}
}

// Abort rolls the transaction back, running abort callbacks (HDFS
// truncation of uncommitted appends among them).
func (t *Tx) Abort() {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.aborted = true
	cbs := t.onAbort
	t.mu.Unlock()
	w := t.mgr.walRef()
	if w != nil {
		w.LogAbort(t.xid)
	}
	t.mgr.finish(t.xid, StatusAborted)
	if w != nil {
		w.clearDirty(t.xid)
	}
	runAbortCbs(cbs)
}

// Done reports whether the transaction has committed or aborted.
func (t *Tx) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// Aborted reports whether the transaction aborted.
func (t *Tx) Aborted() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.aborted
}
