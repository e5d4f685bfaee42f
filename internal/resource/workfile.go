package resource

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"hawq/internal/types"
)

// Store is a query-scoped workfile store: one per node per query,
// holding every spill file its operators create under a single lazily
// created scratch directory so teardown (normal, error, or cancel) is
// one recursive delete. Files are batch-encoded (EncodeBatch frames).
type Store struct {
	root string
	tag  string

	mu    sync.Mutex
	dir   string
	files map[*File]struct{}
}

// NewStore creates a workfile store rooted at the given scratch
// directory (the cluster's spill directory). The tag — usually
// "q<id>-seg<n>" — names the scratch subdirectory so leftovers are
// attributable.
func NewStore(root, tag string) *Store {
	return &Store{root: root, tag: tag}
}

// wfDirPrefix names workfile scratch directories; Leftovers matches it.
const wfDirPrefix = "hawq-wf-"

// Create opens a new workfile, creating the store's scratch directory
// on first use.
func (s *Store) Create() (*File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" {
		dir, err := os.MkdirTemp(s.root, wfDirPrefix+s.tag+"-*")
		if err != nil {
			return nil, fmt.Errorf("resource: create workfile dir: %w", err)
		}
		s.dir = dir
		s.files = make(map[*File]struct{})
	}
	f, err := os.CreateTemp(s.dir, "wf-*.run")
	if err != nil {
		return nil, fmt.Errorf("resource: create workfile: %w", err)
	}
	spillFiles.Add(1)
	wf := &File{st: s, f: f, w: bufio.NewWriter(f), batch: types.GetBatch(0)}
	s.files[wf] = struct{}{}
	return wf, nil
}

// Live returns the number of workfiles created and not yet removed.
func (s *Store) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}

// Cleanup removes every remaining workfile and the scratch directory.
// It is best-effort (teardown must not mask the query's real error)
// and idempotent; the store is reusable afterwards.
func (s *Store) Cleanup() {
	s.mu.Lock()
	files := make([]*File, 0, len(s.files))
	for f := range s.files {
		files = append(files, f)
	}
	dir := s.dir
	s.dir = ""
	s.files = nil
	s.mu.Unlock()
	for _, f := range files {
		f.release()
	}
	if dir != "" {
		//hawqcheck:ignore errdrop — best-effort scratch removal on teardown
		_ = os.RemoveAll(dir)
	}
}

// Leftovers lists workfile scratch directories remaining under root —
// after every query has torn down there should be none. The chaos
// harness asserts this after each fault step.
func Leftovers(root string) ([]string, error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), wfDirPrefix) {
			out = append(out, filepath.Join(root, e.Name()))
		}
	}
	return out, nil
}

// File is one append-then-read workfile. Rows are buffered into an
// internal batch and flushed as framed EncodeBatch payloads:
//
//	[uvarint rawLen][uvarint storedLen][storedLen payload bytes]
//
// where storedLen always equals rawLen: frames are stored raw, and a
// frame whose lengths differ is corrupt. Writing ends with Finish;
// reading goes through NewReader; Remove deletes the file.
type File struct {
	st       *Store
	f        *os.File
	w        *bufio.Writer
	batch    *types.Batch
	enc      []byte
	rows     int64
	bytes    int64
	finished bool
}

// AppendRow buffers one row, flushing a frame each time the buffer
// reaches types.DefaultBatchRows.
func (f *File) AppendRow(r types.Row) error {
	f.batch.AppendRow(r)
	if f.batch.Len() >= types.DefaultBatchRows {
		return f.flush()
	}
	return nil
}

// Rows returns the number of rows appended so far.
func (f *File) Rows() int64 { return f.rows }

// Bytes returns the encoded bytes written so far (flushed frames only).
func (f *File) Bytes() int64 { return f.bytes }

// flush writes the buffered batch as one frame.
func (f *File) flush() error {
	n := f.batch.Len()
	if n == 0 {
		return nil
	}
	f.enc = types.EncodeBatch(f.enc[:0], f.batch)
	var hdr [2 * binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(len(f.enc)))
	hn += binary.PutUvarint(hdr[hn:], uint64(len(f.enc)))
	if _, err := f.w.Write(hdr[:hn]); err != nil {
		return fmt.Errorf("resource: write workfile frame: %w", err)
	}
	if _, err := f.w.Write(f.enc); err != nil {
		return fmt.Errorf("resource: write workfile frame: %w", err)
	}
	f.rows += int64(n)
	f.bytes += int64(hn + len(f.enc))
	spillBytes.Add(int64(hn + len(f.enc)))
	f.batch.Reset(f.batch.Width())
	return nil
}

// Finish flushes buffered rows and completes the write phase. It must
// be called before NewReader. Finish is idempotent.
func (f *File) Finish() error {
	if f.finished {
		return nil
	}
	if err := f.flush(); err != nil {
		return err
	}
	if err := f.w.Flush(); err != nil {
		return fmt.Errorf("resource: flush workfile: %w", err)
	}
	f.finished = true
	if f.batch != nil {
		types.PutBatch(f.batch)
		f.batch = nil
	}
	return nil
}

// NewReader opens an independent reader over the finished file, started
// at the first frame.
func (f *File) NewReader() (*Reader, error) {
	if !f.finished {
		return nil, fmt.Errorf("resource: workfile read before Finish")
	}
	rf, err := os.Open(f.f.Name())
	if err != nil {
		return nil, fmt.Errorf("resource: open workfile: %w", err)
	}
	return &Reader{f: rf, br: bufio.NewReader(rf)}, nil
}

// Remove closes and deletes the workfile, releasing it from the store.
// Idempotent; errors are swallowed (removal is teardown).
func (f *File) Remove() {
	if f.st != nil {
		f.st.mu.Lock()
		delete(f.st.files, f)
		f.st.mu.Unlock()
	}
	f.release()
}

// release closes handles and deletes the file without touching the
// store's registry (Cleanup already emptied it).
func (f *File) release() {
	if f.batch != nil {
		types.PutBatch(f.batch)
		f.batch = nil
	}
	if f.f != nil {
		name := f.f.Name()
		//hawqcheck:ignore errdrop — best-effort close before delete
		_ = f.f.Close()
		//hawqcheck:ignore errdrop — best-effort workfile delete on teardown
		_ = os.Remove(name)
		f.f = nil
	}
}

// Reader iterates a workfile's frames, decoding each into a
// caller-supplied batch.
type Reader struct {
	f    *os.File
	br   *bufio.Reader
	sbuf []byte
}

// Next decodes the next frame into b (resetting it), reporting ok=false
// at end of file.
func (r *Reader) Next(b *types.Batch) (bool, error) {
	rawLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return false, nil
		}
		return false, fmt.Errorf("resource: workfile frame header: %w", err)
	}
	storedLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return false, fmt.Errorf("resource: workfile frame header: %w", err)
	}
	const maxFrame = 1 << 30
	if storedLen != rawLen {
		return false, fmt.Errorf("resource: corrupt workfile frame (stored %d bytes, raw %d)", storedLen, rawLen)
	}
	if rawLen > maxFrame {
		return false, fmt.Errorf("resource: workfile frame too large (%d bytes)", rawLen)
	}
	if cap(r.sbuf) < int(storedLen) {
		r.sbuf = make([]byte, storedLen)
	}
	r.sbuf = r.sbuf[:storedLen]
	if _, err := io.ReadFull(r.br, r.sbuf); err != nil {
		return false, fmt.Errorf("resource: workfile frame body: %w", err)
	}
	if _, err := types.DecodeBatch(r.sbuf, b); err != nil {
		return false, fmt.Errorf("resource: workfile frame decode: %w", err)
	}
	return true, nil
}

// Close releases the reader's file handle.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}
