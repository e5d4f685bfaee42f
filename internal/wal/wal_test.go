package wal

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hawq/internal/tx"
)

func rec(lsn uint64, t tx.RecordType, xid tx.XID) tx.Record {
	return tx.Record{LSN: lsn, Type: t, XID: xid, Table: "pg_class", RowID: lsn, Data: []byte("payload")}
}

func appendAll(t *testing.T, l *Log, recs []tx.Record) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("append LSN %d: %v", r.LSN, err)
		}
	}
}

func TestLogRoundTrip(t *testing.T) {
	d := NewFaultDisk()
	l, recd, err := Open(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recd.Records) != 0 || recd.Snapshot != nil {
		t.Fatalf("fresh disk recovered %+v", recd)
	}
	var want []tx.Record
	for i := uint64(1); i <= 20; i++ {
		want = append(want, rec(i, tx.RecInsert, 5))
	}
	appendAll(t, l, want)
	if err := l.Commit(20); err != nil {
		t.Fatal(err)
	}
	if l.DurableLSN() != 20 {
		t.Fatalf("durable = %d", l.DurableLSN())
	}

	l2, recd2, err := Open(d.Survive(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recd2.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recd2.Records), len(want))
	}
	for i, r := range recd2.Records {
		if r.LSN != want[i].LSN || r.Type != want[i].Type || r.XID != want[i].XID ||
			r.Table != want[i].Table || r.RowID != want[i].RowID || string(r.Data) != string(want[i].Data) {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
	if recd2.TornBytes != 0 {
		t.Errorf("clean log reports %d torn bytes", recd2.TornBytes)
	}
	// The reopened log keeps appending where the old one stopped.
	if err := l2.Append(rec(21, tx.RecCommit, 5)); err != nil {
		t.Fatal(err)
	}
	if l2.LastLSN() != 21 {
		t.Errorf("last = %d", l2.LastLSN())
	}
}

func TestLogSegmentRollAndTruncate(t *testing.T) {
	d := NewFaultDisk()
	l, _, err := Open(d, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		if err := l.Append(rec(i, tx.RecInsert, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Segments() < 3 {
		t.Fatalf("expected several segments, got %d", l.Segments())
	}
	before := l.Segments()
	if err := l.TruncateBelow(90); err != nil {
		t.Fatal(err)
	}
	if l.Segments() >= before {
		t.Fatalf("truncate kept all %d segments", l.Segments())
	}
	// Records at or past the redo point survive reopen.
	l2, recd, err := Open(d.Survive(), Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if n := len(recd.Records); n == 0 || recd.Records[n-1].LSN != 100 {
		t.Fatalf("recovered tail %+v", recd.Records)
	}
	for _, r := range recd.Records {
		if r.LSN >= 90 {
			return
		}
	}
	t.Fatal("no record at or past redo LSN 90 survived")
}

// handleDisk is a Disk that counts the handles its Create opened and
// nobody has closed yet.
type handleDisk struct {
	*FaultDisk
	open int
}

func (d *handleDisk) Create(name string) (File, error) {
	f, err := d.FaultDisk.Create(name)
	if err != nil {
		return nil, err
	}
	d.open++
	return &countedFile{File: f, d: d}, nil
}

type countedFile struct {
	File
	d *handleDisk
}

func (f *countedFile) Close() error {
	f.d.open--
	return f.File.Close()
}

// TestTruncateClosesDroppedSegments: a segment truncation deletes is
// closed too (an unlinked file still open keeps its blocks), so after
// every checkpoint the log holds one handle per live segment it wrote,
// and none once closed.
func TestTruncateClosesDroppedSegments(t *testing.T) {
	d := &handleDisk{FaultDisk: NewFaultDisk()}
	l, _, err := Open(d, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(1); lsn <= 300; lsn++ {
		if err := l.Append(rec(lsn, tx.RecInsert, 3)); err != nil {
			t.Fatal(err)
		}
		if lsn%50 != 0 {
			continue
		}
		if err := l.Commit(lsn); err != nil {
			t.Fatal(err)
		}
		if err := l.WriteCheckpointFile(lsn-10, []byte("snapshot")); err != nil {
			t.Fatal(err)
		}
		if err := l.TruncateBelow(lsn - 10); err != nil {
			t.Fatal(err)
		}
		if d.open != l.Segments() {
			t.Fatalf("at LSN %d: %d open handles, %d live segments", lsn, d.open, l.Segments())
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if d.open != 0 {
		t.Fatalf("%d handles open after Close", d.open)
	}
}

// TestTornTailEveryByte is the satellite torn-tail sweep at the log
// level: truncating the durable image at EVERY byte boundary must
// recover a clean prefix of the original records — never a panic, never
// an error that loses intact records, never an invented record.
func TestTornTailEveryByte(t *testing.T) {
	d := NewFaultDisk()
	l, _, err := Open(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []tx.Record
	for i := uint64(1); i <= 8; i++ {
		typ := tx.RecInsert
		if i%4 == 0 {
			typ = tx.RecCommit
		}
		want = append(want, rec(i, typ, tx.XID(i/4+2)))
	}
	appendAll(t, l, want)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	full, err := d.ReadFile("wal-0000000001.seg")
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		nd := NewFaultDisk()
		f, err := nd.Create("wal-0000000001.seg")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(full[:cut]); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		l2, recd, err := Open(nd.Survive(), Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		for i, r := range recd.Records {
			if r.LSN != want[i].LSN || r.Type != want[i].Type || r.XID != want[i].XID {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, r, want[i])
			}
		}
		if len(recd.Records) > len(want) {
			t.Fatalf("cut %d: invented records: %d > %d", cut, len(recd.Records), len(want))
		}
		if cut == len(full) && len(recd.Records) != len(want) {
			t.Fatalf("full image recovered only %d records", len(recd.Records))
		}
		// The recovered log accepts new appends after any tear.
		next := uint64(len(recd.Records)) + 1
		if err := l2.Append(rec(next, tx.RecInsert, 99)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

func TestFaultDiskTornWrite(t *testing.T) {
	d := NewFaultDisk()
	f, err := d.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	d.SetCrash(CrashPlan{WriteByte: 5})
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("defg"))
	if err != ErrCrashed {
		t.Fatalf("torn write err = %v", err)
	}
	if n != 2 {
		t.Fatalf("torn write applied %d bytes, want 2", n)
	}
	if !d.Crashed() {
		t.Fatal("disk not crashed")
	}
	if _, err := d.ReadFile("x"); err != ErrCrashed {
		t.Fatalf("read after crash = %v", err)
	}
	// Nothing was synced: the survivor sees an empty file.
	s := d.Survive()
	data, err := s.ReadFile("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("unsynced bytes survived: %q", data)
	}
}

func TestFaultDiskPartialFsync(t *testing.T) {
	d := NewFaultDisk()
	f, _ := d.Create("x")
	if _, err := f.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	d.SetCrash(CrashPlan{SyncIndex: 1, Frac: 0.5})
	if err := f.Sync(); err != ErrCrashed {
		t.Fatalf("partial fsync err = %v", err)
	}
	data, err := d.Survive().ReadFile("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 50 {
		t.Fatalf("survivor has %d bytes, want 50", len(data))
	}
}

func TestFaultDiskAckThenCrash(t *testing.T) {
	d := NewFaultDisk()
	f, _ := d.Create("x")
	if _, err := f.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	d.SetCrash(CrashPlan{SyncIndex: 1, Frac: 1})
	if err := f.Sync(); err != nil {
		t.Fatalf("acked fsync err = %v", err)
	}
	if !d.Crashed() {
		t.Fatal("crash did not land after the ack")
	}
	data, err := d.Survive().ReadFile("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 10 {
		t.Fatalf("survivor has %d bytes, want all 10", len(data))
	}
}

func TestFaultDiskSurviveUnsynced(t *testing.T) {
	d := NewFaultDisk()
	f, _ := d.Create("x")
	if _, err := f.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	d.SetCrash(CrashPlan{SyncIndex: 1, SurviveUnsynced: true})
	if err := f.Sync(); err != ErrCrashed {
		t.Fatalf("sync = %v", err)
	}
	data, err := d.Survive().ReadFile("x")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "abcdef" {
		t.Fatalf("page cache lost: %q", data)
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	d := NewFaultDisk()
	l, _, err := Open(d, Options{GroupWindow: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 16
	for i := uint64(1); i <= n; i++ {
		if err := l.Append(rec(i, tx.RecCommit, tx.XID(i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := uint64(1); i <= n; i++ {
		wg.Add(1)
		go func(lsn uint64) {
			defer wg.Done()
			if err := l.Commit(lsn); err != nil {
				t.Errorf("commit %d: %v", lsn, err)
			}
		}(i)
	}
	wg.Wait()
	_, syncs, _ := d.Counts()
	if syncs >= n {
		t.Fatalf("group commit did not batch: %d fsyncs for %d commits", syncs, n)
	}
	if l.DurableLSN() != n {
		t.Fatalf("durable = %d", l.DurableLSN())
	}
}

func TestCheckpointRecoversNewestValid(t *testing.T) {
	d := NewFaultDisk()
	l, _, err := Open(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpointFile(5, []byte("old-snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpointFile(9, []byte("new-snapshot")); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest checkpoint: recovery must fall back to the old.
	s := d.Survive()
	name := fmt.Sprintf("ckpt-%020d.ckpt", 9)
	data, err := s.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	f, err := s.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	l2, recd, err := Open(s.Survive(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if recd.RedoLSN != 5 || string(recd.Snapshot) != "old-snapshot" {
		t.Fatalf("recovered redo=%d snap=%q, want the older valid checkpoint", recd.RedoLSN, recd.Snapshot)
	}
}

func TestOpenDropsTempFiles(t *testing.T) {
	d := NewFaultDisk()
	f, err := d.Create("ckpt-00000000000000000007.ckpt.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("half-written")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	l, recd, err := Open(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if recd.Snapshot != nil {
		t.Fatal("temp checkpoint treated as real")
	}
	names, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == "ckpt-00000000000000000007.ckpt.tmp" {
			t.Fatal("temp file survived open")
		}
	}
}
