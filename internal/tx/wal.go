package tx

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// RecordType classifies WAL records. Only catalog mutations are logged:
// user data lives on HDFS and relies on HDFS replication, not WAL (§2.6).
type RecordType uint8

// WAL record types.
const (
	RecBegin RecordType = iota
	RecCommit
	RecAbort
	RecInsert // catalog row insert
	RecDelete // catalog row delete (MVCC xmax stamp)
	// RecCheckpoint marks a completed catalog checkpoint. Data carries the
	// uvarint-encoded redo-start LSN: recovery replays records at or past
	// it on top of the checkpoint snapshot.
	RecCheckpoint
)

var recNames = [...]string{"BEGIN", "COMMIT", "ABORT", "INSERT", "DELETE", "CHECKPOINT"}

// String returns the record type mnemonic.
func (t RecordType) String() string {
	if int(t) < len(recNames) {
		return recNames[t]
	}
	return fmt.Sprintf("UNKNOWN(%d)", uint8(t))
}

// valid reports whether t is a known record type. Decoded records from
// disk or the wire must be validated: an out-of-range type byte means a
// torn or corrupt frame, not a new kind of record.
func (t RecordType) valid() bool { return int(t) < len(recNames) }

// Record is one WAL entry.
type Record struct {
	LSN   uint64
	Type  RecordType
	XID   XID
	Table string
	RowID uint64
	Data  []byte
}

// Encode serializes the record for shipping.
func (r Record) Encode() []byte {
	buf := binary.AppendUvarint(nil, r.LSN)
	buf = append(buf, byte(r.Type))
	buf = binary.AppendUvarint(buf, uint64(r.XID))
	buf = binary.AppendUvarint(buf, uint64(len(r.Table)))
	buf = append(buf, r.Table...)
	buf = binary.AppendUvarint(buf, r.RowID)
	buf = binary.AppendUvarint(buf, uint64(len(r.Data)))
	buf = append(buf, r.Data...)
	return buf
}

// DecodeRecord reverses Record.Encode. Every field is bounds-checked and
// the type byte validated, so arbitrary (torn, corrupt) input yields an
// error — never a panic and never a record that Encode could not have
// produced.
func DecodeRecord(buf []byte) (Record, error) {
	var r Record
	lsn, n := binary.Uvarint(buf)
	if n <= 0 {
		return r, fmt.Errorf("wal: truncated LSN")
	}
	buf = buf[n:]
	r.LSN = lsn
	if len(buf) < 1 {
		return r, fmt.Errorf("wal: truncated type")
	}
	r.Type = RecordType(buf[0])
	if !r.Type.valid() {
		return Record{}, fmt.Errorf("wal: invalid record type %d", buf[0])
	}
	buf = buf[1:]
	xid, n := binary.Uvarint(buf)
	if n <= 0 {
		return r, fmt.Errorf("wal: truncated xid")
	}
	buf = buf[n:]
	r.XID = XID(xid)
	tl, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < tl {
		return r, fmt.Errorf("wal: truncated table name")
	}
	r.Table = string(buf[n : n+int(tl)])
	buf = buf[n+int(tl):]
	rowID, n := binary.Uvarint(buf)
	if n <= 0 {
		return r, fmt.Errorf("wal: truncated row id")
	}
	buf = buf[n:]
	r.RowID = rowID
	dl, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < dl {
		return r, fmt.Errorf("wal: truncated data")
	}
	r.Data = append([]byte(nil), buf[n:n+int(dl)]...)
	return r, nil
}

// Sink is a durable log beneath the in-memory WAL. Append receives every
// record in LSN order; Commit must make all records up to and including
// lsn durable (fsync) before returning. A nil sink keeps the WAL
// volatile, which is how tests and the standby's replica run.
type Sink interface {
	Append(r Record) error
	Commit(lsn uint64) error
}

// WAL is the master's write-ahead log. It keeps no records itself:
// subscribers receive each record as it is appended, in LSN order; the
// standby master subscribes and replays records into its catalog replica
// — the paper's transaction log replication process that keeps the warm
// standby current (§2.6). When a durable Sink is attached, records are
// mirrored to it on append and made durable at commit; sink failures are
// latched and surfaced at commit time so the logging fast path stays
// error-free.
type WAL struct {
	mu      sync.Mutex
	nextLSN uint64
	subs    map[int]func(Record)
	nextSub int
	sink    Sink
	err     error          // first sink error; poisons later commits
	dirty   map[XID]uint64 // in-flight txns with records: xid → first LSN
	// onCommit, if set, runs after each durable commit with the total
	// record count; the cluster uses it to trigger periodic checkpoints.
	onCommit func(total uint64)
}

// NewWAL creates an empty volatile log.
func NewWAL() *WAL { return NewWALAt(nil, 1) }

// NewWALAt creates a log that hands out LSNs starting at nextLSN and
// mirrors records to sink (nil for volatile). Recovery uses it to resume
// the LSN sequence where the durable log left off.
func NewWALAt(sink Sink, nextLSN uint64) *WAL {
	return &WAL{
		nextLSN: nextLSN,
		sink:    sink,
		subs:    map[int]func(Record){},
		dirty:   map[XID]uint64{},
	}
}

// Append assigns an LSN, mirrors the record to the durable sink and ships
// it to subscribers. Sink errors are latched and reported by the next
// LogCommit. Shipping happens under the log's lock, so every subscriber
// sees records in LSN order however many goroutines append; a
// subscriber must therefore not call back into the log.
func (w *WAL) Append(r Record) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	r.LSN = w.nextLSN
	w.nextLSN++
	if r.XID != InvalidXID && (r.Type == RecInsert || r.Type == RecDelete) {
		if _, ok := w.dirty[r.XID]; !ok {
			w.dirty[r.XID] = r.LSN
		}
	}
	if w.sink != nil && w.err == nil {
		if err := w.sink.Append(r); err != nil {
			w.err = err
		}
	}
	for _, s := range w.subs {
		s(r)
	}
	return r.LSN
}

// LogCommit writes the commit record for xid and forces it (and every
// record before it) to stable storage. Transactions that logged nothing
// commit without touching the disk. The returned error means the commit
// is NOT durable and the transaction must abort.
func (w *WAL) LogCommit(xid XID) error {
	w.mu.Lock()
	_, isDirty := w.dirty[xid]
	w.mu.Unlock()
	if !isDirty {
		return nil
	}
	lsn := w.Append(Record{Type: RecCommit, XID: xid})
	w.mu.Lock()
	err := w.err
	sink := w.sink
	hook := w.onCommit
	total := w.nextLSN - 1
	w.mu.Unlock()
	if err != nil {
		return err
	}
	if sink != nil {
		if err := sink.Commit(lsn); err != nil {
			w.mu.Lock()
			if w.err == nil {
				w.err = err
			}
			w.mu.Unlock()
			return err
		}
	}
	if hook != nil {
		hook(total)
	}
	return nil
}

// LogAbort writes the abort record for xid. Aborts need no fsync: if the
// record is lost in a crash, recovery treats the transaction as in-flight
// and discards it anyway.
func (w *WAL) LogAbort(xid XID) {
	w.mu.Lock()
	_, isDirty := w.dirty[xid]
	w.mu.Unlock()
	if !isDirty {
		return
	}
	w.Append(Record{Type: RecAbort, XID: xid})
}

// clearDirty retires xid from checkpoint redo accounting. It must run
// only after the CLOG has marked xid finished: while a transaction is
// durable-but-not-yet-finished, a concurrent checkpoint's snapshot
// filter still sees it in progress and drops its rows, so the redo LSN
// has to keep covering its records or a crash right after that
// checkpoint would lose the commit.
func (w *WAL) clearDirty(xid XID) {
	w.mu.Lock()
	delete(w.dirty, xid)
	w.mu.Unlock()
}

// SetOnCommit installs a hook run after every durable commit with the
// total number of records logged so far.
func (w *WAL) SetOnCommit(fn func(total uint64)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.onCommit = fn
}

// RedoLSN returns the LSN a checkpoint taken now must replay from: the
// first LSN of the oldest in-flight transaction that has logged records,
// or the next LSN to be assigned when none is in flight.
func (w *WAL) RedoLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	redo := w.nextLSN
	for _, first := range w.dirty {
		if first < redo {
			redo = first
		}
	}
	return redo
}

// NextLSN returns the next LSN to be assigned.
func (w *WAL) NextLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
}

// Err returns the latched sink error, if any.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Subscribe registers a shipping target, which receives every record
// appended from now on, and returns a token for Unsubscribe. What was
// logged before is not kept: a standby attaching late subscribes first
// and then copies a catalog snapshot (see cluster.StartStandby).
func (w *WAL) Subscribe(fn func(Record)) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	id := w.nextSub
	w.nextSub++
	w.subs[id] = fn
	return id
}

// Unsubscribe detaches a shipping target; once it returns, no record is
// being shipped to it, since shipping holds the log's lock. Promoting a
// standby must call this: a subscription left attached keeps replaying
// the old primary's records into the now-active catalog (double apply).
func (w *WAL) Unsubscribe(id int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.subs, id)
}

// Subscribers returns the number of attached shipping targets.
func (w *WAL) Subscribers() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.subs)
}
