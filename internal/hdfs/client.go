package hdfs

import (
	"errors"
	"fmt"
	"io"
	"path"
)

// CreateOptions tunes file creation.
type CreateOptions struct {
	// PreferredHost places the first replica of every block on the named
	// DataNode when it is alive, giving HAWQ segments write locality with
	// their collocated DataNode.
	PreferredHost string
	// Writer identifies the lease holder for diagnostics.
	Writer string
}

// Create creates a new file and returns a writer holding its lease.
func (fs *FileSystem) Create(p string, opts CreateOptions) (*FileWriter, error) {
	if err := validatePath(p); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = path.Clean(p)
	if fs.dirs[p] {
		return nil, fmt.Errorf("%w: %s", ErrIsDirectory, p)
	}
	if _, ok := fs.files[p]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, p)
	}
	writer := opts.Writer
	if writer == "" {
		writer = "anonymous"
	}
	fs.nextFile++
	f := &fileMeta{id: fs.nextFile, lease: writer, modTime: fs.clk.Now()}
	fs.files[p] = f
	fs.mkdirLocked(path.Dir(p))
	return &FileWriter{fs: fs, path: p, meta: f, preferred: opts.PreferredHost}, nil
}

// Append opens an existing file for appending. Only a single
// writer/appender/truncater is allowed at a time (§5.3); a held lease
// yields ErrLeaseHeld.
func (fs *FileSystem) Append(p string, opts CreateOptions) (*FileWriter, error) {
	if err := validatePath(p); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = path.Clean(p)
	f, ok := fs.files[p]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	if f.lease != "" {
		return nil, fmt.Errorf("%w: %s held by %s", ErrLeaseHeld, p, f.lease)
	}
	writer := opts.Writer
	if writer == "" {
		writer = "anonymous"
	}
	f.lease = writer
	return &FileWriter{fs: fs, path: p, meta: f, preferred: opts.PreferredHost}, nil
}

// CreateOrAppend appends when the file exists and creates it otherwise.
func (fs *FileSystem) CreateOrAppend(p string, opts CreateOptions) (*FileWriter, error) {
	w, err := fs.Append(p, opts)
	if err == nil {
		return w, nil
	}
	w, cerr := fs.Create(p, opts)
	if cerr == nil {
		return w, nil
	}
	return nil, err
}

// FileWriter appends bytes to an HDFS file, streaming full blocks to a
// replication pipeline. It implements io.WriteCloser.
type FileWriter struct {
	fs        *FileSystem
	path      string
	meta      *fileMeta
	preferred string
	closed    bool
	err       error
}

// Write appends p to the file. Replicas that fail mid-write are dropped
// from the pipeline, as in HDFS; the write fails only if every replica of
// a block fails.
func (w *FileWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, ErrClosed
	}
	if w.err != nil {
		return 0, w.err
	}
	total := len(p)
	for len(p) > 0 {
		b, err := w.tail()
		if err != nil {
			w.err = err
			return total - len(p), err
		}
		room := int64(w.fs.cfg.BlockSize) - b.length
		n := int64(len(p))
		if n > room {
			n = room
		}
		chunk := p[:n]
		var live []*DataNode
		for _, dn := range b.locs {
			if err := dn.appendBlock(b.id, chunk); err == nil {
				live = append(live, dn)
			}
		}
		if len(live) == 0 {
			w.err = fmt.Errorf("hdfs: write %s: all replicas failed", w.path)
			return total - len(p), w.err
		}
		w.fs.mu.Lock()
		b.locs = live
		b.length += n
		w.meta.modTime = w.fs.clk.Now()
		w.fs.mu.Unlock()
		hdfsWriteBytes.Add(n)
		p = p[n:]
	}
	return total, nil
}

// tail returns the block currently being filled, allocating a fresh block
// when the file is empty or the last block is full.
func (w *FileWriter) tail() (*blockMeta, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if n := len(w.meta.blocks); n > 0 {
		b := &w.meta.blocks[n-1]
		if b.length < int64(w.fs.cfg.BlockSize) {
			return b, nil
		}
	}
	targets := w.fs.pickTargets(w.preferred)
	if len(targets) == 0 {
		return nil, ErrNoDataNodes
	}
	w.fs.nextBlock++
	w.meta.blocks = append(w.meta.blocks, blockMeta{id: w.fs.nextBlock, locs: targets})
	return &w.meta.blocks[len(w.meta.blocks)-1], nil
}

// Close releases the lease. The file becomes readable by Open/Append and
// eligible for Truncate.
func (w *FileWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.fs.mu.Lock()
	w.meta.lease = ""
	w.fs.mu.Unlock()
	return w.err
}

// Truncate shortens the file at p to length, per the paper's added HDFS
// operation (§5.3): callers may only truncate closed files, a length
// greater than the file length is an error, the operation is atomic, and
// single writer/appender/truncater semantics hold (implemented by taking
// the lease for the duration). Block-boundary truncation just drops
// blocks; mid-block truncation rewrites the last kept block (the paper's
// copy-last-block-to-temp-and-concat dance, collapsed here because our
// DataNodes can shorten a replica in place).
func (fs *FileSystem) Truncate(p string, length int64) error {
	if err := validatePath(p); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = path.Clean(p)
	f, ok := fs.files[p]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	if f.lease != "" {
		return fmt.Errorf("%w: %s held by %s", ErrLeaseHeld, p, f.lease)
	}
	cur := f.length()
	if length > cur {
		return fmt.Errorf("%w: truncate %s to %d but length is %d", ErrBadLength, p, length, cur)
	}
	if length == cur {
		return nil
	}
	// Lease the file so the operation is exclusive, then apply.
	f.lease = "truncate"
	defer func() { f.lease = "" }()

	var off int64
	keep := 0
	for i := range f.blocks {
		b := &f.blocks[i]
		if off+b.length <= length {
			off += b.length
			keep = i + 1
			continue
		}
		// b straddles the new length.
		within := length - off
		if within > 0 {
			for _, dn := range b.locs {
				if err := dn.truncateBlock(b.id, within); err != nil && dn.Alive() {
					return fmt.Errorf("hdfs: truncate %s: %w", p, err)
				}
			}
			b.length = within
			keep = i + 1
		}
		break
	}
	for _, b := range f.blocks[keep:] {
		for _, dn := range b.locs {
			dn.deleteBlock(b.id)
		}
	}
	f.blocks = f.blocks[:keep]
	f.gen++
	f.modTime = fs.clk.Now()
	hdfsTruncates.Inc()
	return nil
}

// Open returns a reader over the file's current contents. The reader
// snapshots the block list at open time: data appended later is not
// visible, and data unaffected by a concurrent truncate remains readable,
// matching the visibility contract in §5.3.
func (fs *FileSystem) Open(p string) (*FileReader, error) {
	if err := validatePath(p); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = path.Clean(p)
	f, ok := fs.files[p]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	blocks := make([]blockMeta, len(f.blocks))
	copy(blocks, f.blocks)
	var length int64
	for _, b := range blocks {
		length += b.length
	}
	return &FileReader{fs: fs, path: p, blocks: blocks, length: length, id: f.id, gen: f.gen}, nil
}

// FileReader reads an HDFS file. It implements io.Reader, io.ReaderAt,
// io.Seeker and io.Closer. Reads retry across replicas, so a dead
// DataNode or failed disk is invisible to the caller as long as one
// replica survives (§2.6).
type FileReader struct {
	fs     *FileSystem
	path   string
	blocks []blockMeta
	length int64
	id     uint64
	gen    uint64
	pos    int64
	closed bool
}

// Size returns the file length at open time.
func (r *FileReader) Size() int64 { return r.length }

// Identity returns the file's FileStatus.FileID and Generation at open
// time, taken under the same NameNode lock as the block list.
func (r *FileReader) Identity() (fileID, generation uint64) { return r.id, r.gen }

// ReadAt implements io.ReaderAt.
func (r *FileReader) ReadAt(p []byte, off int64) (int, error) {
	if r.closed {
		return 0, ErrClosed
	}
	if off >= r.length {
		return 0, io.EOF
	}
	read := 0
	for read < len(p) && off < r.length {
		bi, boff := r.findBlock(off)
		b := &r.blocks[bi]
		want := int64(len(p) - read)
		if rem := b.length - boff; want > rem {
			want = rem
		}
		n, err := r.readReplicated(b, boff, p[read:read+int(want)])
		if err != nil {
			return read, err
		}
		if n == 0 {
			return read, fmt.Errorf("hdfs: read %s: replica shorter than its block: %w", r.path, io.ErrUnexpectedEOF)
		}
		read += n
		off += int64(n)
	}
	if read < len(p) {
		return read, io.EOF
	}
	return read, nil
}

func (r *FileReader) findBlock(off int64) (int, int64) {
	for i := range r.blocks {
		if off < r.blocks[i].length {
			return i, off
		}
		off -= r.blocks[i].length
	}
	panic("hdfs: offset out of range")
}

// readReplicated fills p from the first replica of b that answers,
// starting at block offset off, and returns the bytes read.
func (r *FileReader) readReplicated(b *blockMeta, off int64, p []byte) (int, error) {
	var lastErr error
	for i, dn := range b.locs {
		n, err := dn.readBlock(b.id, off, p)
		if err == nil {
			if i == 0 {
				hdfsLocalReads.Inc()
			} else {
				hdfsRemoteReads.Inc()
			}
			hdfsReadBytes.Add(int64(n))
			return n, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = ErrBlockLost
	}
	return 0, fmt.Errorf("hdfs: read %s: %w", r.path, lastErr)
}

// Read implements io.Reader.
func (r *FileReader) Read(p []byte) (int, error) {
	n, err := r.ReadAt(p, r.pos)
	r.pos += int64(n)
	if err == io.EOF && n > 0 {
		return n, nil
	}
	return n, err
}

// Seek implements io.Seeker.
func (r *FileReader) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		r.pos = offset
	case io.SeekCurrent:
		r.pos += offset
	case io.SeekEnd:
		r.pos = r.length + offset
	default:
		return 0, fmt.Errorf("hdfs: bad whence %d", whence)
	}
	if r.pos < 0 {
		r.pos = 0
	}
	return r.pos, nil
}

// Close releases the reader.
func (r *FileReader) Close() error {
	r.closed = true
	return nil
}

// WriteFile creates (replacing if present) a file with the given contents.
func (fs *FileSystem) WriteFile(p string, data []byte, opts CreateOptions) error {
	if fs.Exists(p) {
		if err := fs.Delete(p, false); err != nil {
			return err
		}
	}
	w, err := fs.Create(p, opts)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return errors.Join(err, w.Close())
	}
	return w.Close()
}

// ReadFile reads the whole file at p.
func (fs *FileSystem) ReadFile(p string) ([]byte, error) {
	r, err := fs.Open(p)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	out := make([]byte, r.Size())
	if _, err := r.ReadAt(out, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return out, nil
}
