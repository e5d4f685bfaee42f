package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"
	"time"

	"hawq/internal/clock"
	"hawq/internal/obs"
	"hawq/internal/tx"
)

// Log file format. A segment is a 20-byte header followed by frames:
//
//	header:  magic "HAWQWAL2" (8) | first LSN (8, BE) | CRC32C of bytes 0..15 (4)
//	frame:   payload length (4, BE) | CRC32C of payload (4, BE) | payload
//
// where payload is tx.Record.Encode (the LSN rides inside the payload).
// A checkpoint file is a single frame with its own magic:
//
//	ckpt:    magic "HAWQCKP2" (8) | redo LSN (8, BE) | length (4, BE) | CRC32C (4, BE) | snapshot bytes
//
// Frames carry no escape sequences: recovery walks frames from the
// segment start, so a bad length, bad CRC, undecodable payload, or LSN
// discontinuity marks the torn tail and everything before it is intact.
const (
	segMagic    = "HAWQWAL2"
	ckptMagic   = "HAWQCKP2"
	segHdrLen   = 20
	frameHdrLen = 8
	// maxFrame bounds a frame's payload length; a decoded length past it
	// is treated as tail corruption rather than attempted allocation.
	maxFrame = 1 << 26
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	walAppends    = obs.GetCounter("wal.appends")
	walBytes      = obs.GetCounter("wal.bytes")
	walFsyncs     = obs.GetCounter("wal.fsyncs")
	walSegRolls   = obs.GetCounter("wal.segment_rolls")
	walCkpts      = obs.GetCounter("wal.checkpoints")
	walBadCkpts   = obs.GetCounter("wal.bad_checkpoints")
	walRecoveries = obs.GetCounter("wal.recoveries")
	walRecRecords = obs.GetCounter("wal.recovered_records")
	walTornBytes  = obs.GetCounter("wal.torn_bytes")
)

// Options tunes a Log. The zero value gets sane defaults from fill().
type Options struct {
	// SegmentBytes rolls to a new segment file once the current one
	// exceeds this size. Default 256 KiB.
	SegmentBytes int
	// GroupWindow is the group-commit batching window: the fsync leader
	// waits this long for followers to queue their records before the
	// single fsync covers them all. 0 syncs immediately.
	GroupWindow time.Duration
	// Clock times the group-commit window. Defaults to clock.Wall.
	Clock clock.Clock
}

func (o Options) fill() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 256 << 10
	}
	o.Clock = clock.Default(o.Clock)
	return o
}

type segInfo struct {
	name     string
	firstLSN uint64
	f        File // the open handle, nil for a segment recovery only read
}

// Log is the durable write-ahead log: an ordered sequence of segment
// files on a Disk. It implements tx.Sink — the in-memory tx.WAL assigns
// LSNs and mirrors every record here, then calls Commit to force the
// prefix to stable storage. All methods are safe for concurrent use.
type Log struct {
	disk Disk
	opts Options

	// flushMu serializes fsyncs: the holder is the group-commit leader
	// and followers blocked on it are usually satisfied by the leader's
	// sync, and closes a segment's handle only under it. It is always
	// acquired before mu, never inside it.
	flushMu sync.Mutex

	mu         sync.Mutex
	seg        File // current append segment (nil until first append)
	segBytes   int
	segs       []segInfo
	nextSegNo  uint64
	lastLSN    uint64
	durableLSN uint64
	err        error // sticky: first disk error fails everything after
}

// Recovered is what Open salvaged from the disk: the newest valid
// checkpoint (if any) and every intact record, in LSN order. Records
// below RedoLSN are already reflected in Snapshot; the caller replays
// committed records at or past it.
type Recovered struct {
	// Snapshot is the checkpoint's serialized catalog (nil without one).
	Snapshot []byte
	// RedoLSN is the checkpoint's redo point; 0 means no checkpoint.
	RedoLSN uint64
	// Records are the intact log records, oldest first.
	Records []tx.Record
	// LastLSN is the last intact record's LSN (0 for an empty log).
	LastLSN uint64
	// TornBytes counts bytes discarded as torn tail, 0 on a clean open.
	TornBytes int
}

// Open mounts the log on disk, salvaging state left by a crash: it
// picks the newest checkpoint whose CRC verifies, walks every segment
// frame by frame, truncates the tail at the first bad frame, and drops
// stray temp files. A bad frame anywhere but the final segment is real
// corruption (crashes only tear the tail) and fails the open.
func Open(disk Disk, opts Options) (*Log, *Recovered, error) {
	opts = opts.fill()
	names, err := disk.List()
	if err != nil {
		return nil, nil, fmt.Errorf("wal: list: %w", err)
	}
	var segNames []string
	var ckptNames []string
	for _, n := range names {
		switch {
		case strings.HasSuffix(n, ".tmp"):
			// A checkpoint that never finished installing.
			if err := disk.Remove(n); err != nil {
				return nil, nil, err
			}
		case strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg"):
			segNames = append(segNames, n)
		case strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".ckpt"):
			ckptNames = append(ckptNames, n)
		}
	}
	sort.Strings(segNames)
	sort.Strings(ckptNames)

	rec := &Recovered{}
	// Newest valid checkpoint wins; older ones are kept until the next
	// TruncateBelow in case this one's CRC fails.
	for i := len(ckptNames) - 1; i >= 0; i-- {
		redo, snap, ok := readCheckpoint(disk, ckptNames[i])
		if !ok {
			walBadCkpts.Inc()
			continue
		}
		rec.RedoLSN = redo
		rec.Snapshot = snap
		break
	}

	l := &Log{disk: disk, opts: opts, nextSegNo: 1}
	for i, name := range segNames {
		no, ok := parseSegNo(name)
		if !ok {
			continue
		}
		l.nextSegNo = max(l.nextSegNo, no+1)
		data, err := disk.ReadFile(name)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: read %s: %w", name, err)
		}
		last := i == len(segNames)-1
		firstLSN, recs, validEnd, segErr := scanSegment(data, rec.LastLSN)
		if segErr != nil && !last {
			return nil, nil, fmt.Errorf("wal: segment %s: %w", name, segErr)
		}
		if segErr != nil && validEnd == 0 {
			// Torn header: the segment holds nothing recoverable.
			rec.TornBytes += len(data)
			if err := disk.Remove(name); err != nil {
				return nil, nil, err
			}
			continue
		}
		rec.Records = append(rec.Records, recs...)
		if n := len(recs); n > 0 {
			rec.LastLSN = recs[n-1].LSN
		}
		rec.TornBytes += len(data) - validEnd
		seg := segInfo{name: name, firstLSN: firstLSN}
		if last {
			// Rewrite the final segment to its intact prefix: this both
			// truncates any torn tail and yields an appendable handle
			// (Disk has no append-open).
			f, err := disk.Create(name)
			if err != nil {
				return nil, nil, err
			}
			if _, err := f.Write(data[:validEnd]); err != nil {
				return nil, nil, err
			}
			if err := f.Sync(); err != nil {
				return nil, nil, err
			}
			l.seg, seg.f = f, f
			l.segBytes = validEnd
		}
		l.segs = append(l.segs, seg)
	}
	l.lastLSN = rec.LastLSN
	if l.lastLSN == 0 && rec.RedoLSN > 0 {
		l.lastLSN = rec.RedoLSN - 1
	}
	l.durableLSN = l.lastLSN
	walRecoveries.Inc()
	walRecRecords.Add(int64(len(rec.Records)))
	walTornBytes.Add(int64(rec.TornBytes))
	return l, rec, nil
}

// scanSegment walks one segment's frames. It returns the header's first
// LSN, the intact records, the byte offset of the end of the intact
// prefix, and a non-nil error if the segment ends in garbage (torn tail
// or corruption — the caller decides which, by position).
func scanSegment(data []byte, prevLSN uint64) (firstLSN uint64, recs []tx.Record, validEnd int, err error) {
	if len(data) < segHdrLen || string(data[:8]) != segMagic {
		return 0, nil, 0, fmt.Errorf("bad segment header")
	}
	if crc32.Checksum(data[:16], castagnoli) != binary.BigEndian.Uint32(data[16:20]) {
		return 0, nil, 0, fmt.Errorf("segment header checksum mismatch")
	}
	firstLSN = binary.BigEndian.Uint64(data[8:16])
	if prevLSN != 0 && firstLSN != prevLSN+1 {
		return 0, nil, 0, fmt.Errorf("segment first LSN %d does not follow %d", firstLSN, prevLSN)
	}
	want := firstLSN
	off := segHdrLen
	for off < len(data) {
		if len(data)-off < frameHdrLen {
			return firstLSN, recs, off, fmt.Errorf("torn frame header at %d", off)
		}
		ln := int(binary.BigEndian.Uint32(data[off : off+4]))
		crc := binary.BigEndian.Uint32(data[off+4 : off+8])
		if ln <= 0 || ln > maxFrame || off+frameHdrLen+ln > len(data) {
			return firstLSN, recs, off, fmt.Errorf("torn frame at %d", off)
		}
		payload := data[off+frameHdrLen : off+frameHdrLen+ln]
		if crc32.Checksum(payload, castagnoli) != crc {
			return firstLSN, recs, off, fmt.Errorf("frame checksum mismatch at %d", off)
		}
		r, derr := tx.DecodeRecord(payload)
		if derr != nil {
			return firstLSN, recs, off, fmt.Errorf("frame at %d: %w", off, derr)
		}
		if r.LSN != want {
			return firstLSN, recs, off, fmt.Errorf("frame at %d: LSN %d, want %d", off, r.LSN, want)
		}
		want++
		recs = append(recs, r)
		off += frameHdrLen + ln
	}
	return firstLSN, recs, off, nil
}

func parseSegNo(name string) (uint64, bool) {
	var no uint64
	_, err := fmt.Sscanf(name, "wal-%010d.seg", &no)
	return no, err == nil
}

func segName(no uint64) string { return fmt.Sprintf("wal-%010d.seg", no) }

func ckptName(redo uint64) string { return fmt.Sprintf("ckpt-%020d.ckpt", redo) }

func parseCkptLSN(name string) (uint64, bool) {
	var lsn uint64
	_, err := fmt.Sscanf(name, "ckpt-%020d.ckpt", &lsn)
	return lsn, err == nil
}

func readCheckpoint(disk Disk, name string) (redo uint64, snap []byte, ok bool) {
	data, err := disk.ReadFile(name)
	if err != nil || len(data) < 24 || string(data[:8]) != ckptMagic {
		return 0, nil, false
	}
	redo = binary.BigEndian.Uint64(data[8:16])
	ln := int(binary.BigEndian.Uint32(data[16:20]))
	crc := binary.BigEndian.Uint32(data[20:24])
	if ln < 0 || ln > maxFrame || 24+ln != len(data) {
		return 0, nil, false
	}
	payload := data[24 : 24+ln]
	if crc32.Checksum(payload, castagnoli) != crc {
		return 0, nil, false
	}
	if named, k := parseCkptLSN(name); !k || named != redo {
		return 0, nil, false
	}
	return redo, append([]byte(nil), payload...), true
}

// Append writes one record frame to the current segment, rolling to a
// new segment when full. It implements tx.Sink: durability waits for
// Commit. Errors are sticky — a crashed disk fails everything after.
func (l *Log) Append(r tx.Record) error {
	payload := r.Encode()
	frame := make([]byte, frameHdrLen+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHdrLen:], payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.seg == nil || l.segBytes+len(frame) > l.opts.SegmentBytes && l.segBytes > segHdrLen {
		if err := l.rollLocked(r.LSN); err != nil {
			l.err = err
			return err
		}
	}
	if _, err := l.seg.Write(frame); err != nil {
		l.err = err
		return err
	}
	l.segBytes += len(frame)
	l.lastLSN = r.LSN
	walAppends.Inc()
	walBytes.Add(int64(len(frame)))
	return nil
}

// rollLocked syncs the current segment and opens the next one, whose
// first record will be firstLSN. Callers hold l.mu.
func (l *Log) rollLocked(firstLSN uint64) error {
	if l.seg != nil {
		if err := l.seg.Sync(); err != nil {
			return err
		}
		walFsyncs.Inc()
		l.durableLSN = l.lastLSN
	}
	name := segName(l.nextSegNo)
	l.nextSegNo++
	f, err := l.disk.Create(name)
	if err != nil {
		return err
	}
	hdr := make([]byte, segHdrLen)
	copy(hdr[:8], segMagic)
	binary.BigEndian.PutUint64(hdr[8:16], firstLSN)
	binary.BigEndian.PutUint32(hdr[16:20], crc32.Checksum(hdr[:16], castagnoli))
	if _, err := f.Write(hdr); err != nil {
		return err
	}
	l.seg = f
	l.segBytes = segHdrLen
	l.segs = append(l.segs, segInfo{name: name, firstLSN: firstLSN, f: f})
	walSegRolls.Inc()
	walBytes.Add(segHdrLen)
	return nil
}

// Commit makes every record up to and including lsn durable. The first
// caller becomes the group-commit leader: it waits the GroupWindow for
// followers to append their records, then issues one fsync that covers
// the whole batch; followers arriving meanwhile find their LSN already
// durable and return without touching the disk.
func (l *Log) Commit(lsn uint64) error {
	l.mu.Lock()
	done, err := l.durableLSN >= lsn, l.err
	l.mu.Unlock()
	if err != nil || done {
		return err
	}
	return l.force(lsn, true)
}

// Sync forces everything appended so far to stable storage, without the
// group-commit window.
func (l *Log) Sync() error {
	l.mu.Lock()
	lsn := l.lastLSN
	l.mu.Unlock()
	return l.force(lsn, false)
}

func (l *Log) force(lsn uint64, window bool) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	if l.err != nil || l.durableLSN >= lsn {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()
	if window && l.opts.GroupWindow > 0 {
		// The group-commit leader deliberately holds flushMu across the
		// window: followers queue on it and find durableLSN already past
		// their record when the leader's single fsync lands. The timer is
		// a clock timer that always fires — no peer can wedge it.
		t := l.opts.Clock.NewTimer(l.opts.GroupWindow)
		//hawqcheck:ignore lockorder — bounded clock-timer wait is the group-commit window; holding flushMu is the design (followers batch behind the leader) and the timer fires unconditionally
		<-t.C()
	}
	l.mu.Lock()
	target := l.lastLSN
	seg := l.seg
	err := l.err
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if seg == nil {
		return nil
	}
	if err := seg.Sync(); err != nil {
		l.mu.Lock()
		if l.err == nil {
			l.err = err
		}
		l.mu.Unlock()
		return err
	}
	walFsyncs.Inc()
	l.mu.Lock()
	if target > l.durableLSN {
		l.durableLSN = target
	}
	l.mu.Unlock()
	return nil
}

// WriteCheckpointFile installs a checkpoint durably: the snapshot is
// written to a temp file, synced, and renamed into place, so a crash at
// any point leaves either the old or the new checkpoint intact — never
// a half-written one that recovery could trust.
func (l *Log) WriteCheckpointFile(redoLSN uint64, snapshot []byte) error {
	name := ckptName(redoLSN)
	tmp := name + ".tmp"
	f, err := l.disk.Create(tmp)
	if err != nil {
		return err
	}
	hdr := make([]byte, 24)
	copy(hdr[:8], ckptMagic)
	binary.BigEndian.PutUint64(hdr[8:16], redoLSN)
	binary.BigEndian.PutUint32(hdr[16:20], uint32(len(snapshot)))
	binary.BigEndian.PutUint32(hdr[20:24], crc32.Checksum(snapshot, castagnoli))
	if _, err := f.Write(hdr); err != nil {
		return err
	}
	if _, err := f.Write(snapshot); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	walFsyncs.Inc()
	if err := f.Close(); err != nil {
		return err
	}
	if err := l.disk.Rename(tmp, name); err != nil {
		return err
	}
	walCkpts.Inc()
	return nil
}

// TruncateBelow drops log state no recovery can need once a checkpoint
// at redoLSN is installed: segments whose every record is below redoLSN
// (low-water-mark truncation), closed before they are removed, and
// checkpoint files older than it.
func (l *Log) TruncateBelow(redoLSN uint64) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	var drop []segInfo
	for len(l.segs) >= 2 && l.segs[1].firstLSN <= redoLSN {
		drop, l.segs = append(drop, l.segs[0]), l.segs[1:]
	}
	l.mu.Unlock()
	for _, seg := range drop {
		if seg.f != nil {
			if err := seg.f.Close(); err != nil {
				return err
			}
		}
		if err := l.disk.Remove(seg.name); err != nil {
			return err
		}
	}
	names, err := l.disk.List()
	if err != nil {
		return err
	}
	for _, n := range names {
		if lsn, ok := parseCkptLSN(n); ok && lsn < redoLSN {
			if err := l.disk.Remove(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// DurableLSN returns the highest LSN known to be on stable storage.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableLSN
}

// LastLSN returns the highest LSN appended.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Close syncs the current segment (graceful shutdown persists the tail;
// only crashes lose data) and closes every handle.
func (l *Log) Close() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	if l.seg != nil && l.err == nil {
		if err := l.seg.Sync(); err != nil {
			first = err
		} else {
			walFsyncs.Inc()
			l.durableLSN = l.lastLSN
		}
	}
	for i := range l.segs {
		if f := l.segs[i].f; f != nil {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
			l.segs[i].f = nil
		}
	}
	l.seg = nil
	return first
}
