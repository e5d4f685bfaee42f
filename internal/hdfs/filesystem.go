package hdfs

import (
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"hawq/internal/clock"
)

// FileSystem is a simulated HDFS cluster: the NameNode role (namespace,
// block map, lease management) plus its DataNodes. All client operations
// go through it, mirroring how libhdfs3 talks to the NameNode and then to
// DataNodes.
type FileSystem struct {
	cfg Config
	clk clock.Clock

	mu        sync.Mutex
	nodes     []*DataNode
	files     map[string]*fileMeta
	dirs      map[string]bool
	nextBlock BlockID
	nextFile  uint64
	rr        int // round-robin cursor for block placement
}

type fileMeta struct {
	// id is assigned at Create and never reused: a path that is deleted
	// and created again is a different file. gen counts the truncations
	// that shortened the file (real HDFS bumps the last block's generation
	// stamp). Together they tell a reader that bytes it saw at an offset
	// earlier are still the bytes at that offset: appends never rewrite,
	// so only a new id or a new gen can change what an offset holds.
	id      uint64
	gen     uint64
	blocks  []blockMeta
	lease   string // writer identity; "" when closed
	modTime time.Time
}

type blockMeta struct {
	id     BlockID
	length int64
	locs   []*DataNode
}

func (f *fileMeta) length() int64 {
	var n int64
	for _, b := range f.blocks {
		n += b.length
	}
	return n
}

// New creates a simulated HDFS cluster.
func New(cfg Config) (*FileSystem, error) {
	if cfg.DataNodes <= 0 {
		return nil, fmt.Errorf("%w: need at least one DataNode", ErrInvalidConfig)
	}
	if cfg.VolumesPerNode <= 0 {
		cfg.VolumesPerNode = 1
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.Replication <= 0 {
		cfg.Replication = DefaultReplication
	}
	if cfg.Replication > cfg.DataNodes {
		cfg.Replication = cfg.DataNodes
	}
	fs := &FileSystem{
		cfg:   cfg,
		clk:   clock.Default(cfg.Clock),
		files: make(map[string]*fileMeta),
		dirs:  map[string]bool{"/": true},
	}
	for i := 0; i < cfg.DataNodes; i++ {
		fs.nodes = append(fs.nodes, newDataNode(fmt.Sprintf("dn%d", i), cfg.VolumesPerNode, cfg.IO, fs.clk))
	}
	return fs, nil
}

// BlockSize returns the configured block size.
func (fs *FileSystem) BlockSize() int { return fs.cfg.BlockSize }

// DataNode returns the i'th DataNode, for failure injection in tests and
// the fault-tolerance examples.
func (fs *FileSystem) DataNode(i int) *DataNode { return fs.nodes[i] }

// NumDataNodes returns the cluster size.
func (fs *FileSystem) NumDataNodes() int { return len(fs.nodes) }

// Mkdir creates a directory and its ancestors.
func (fs *FileSystem) Mkdir(dir string) error {
	if err := validatePath(dir); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.mkdirLocked(dir)
	return nil
}

func (fs *FileSystem) mkdirLocked(dir string) {
	dir = path.Clean(dir)
	for dir != "/" {
		fs.dirs[dir] = true
		dir = path.Dir(dir)
	}
}

// Exists reports whether a file or directory exists at p.
func (fs *FileSystem) Exists(p string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = path.Clean(p)
	if fs.dirs[p] {
		return true
	}
	_, ok := fs.files[p]
	return ok
}

// Stat returns the status of a file or directory.
func (fs *FileSystem) Stat(p string) (FileStatus, error) {
	if err := validatePath(p); err != nil {
		return FileStatus{}, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = path.Clean(p)
	if fs.dirs[p] {
		return FileStatus{Path: p, IsDir: true}, nil
	}
	f, ok := fs.files[p]
	if !ok {
		return FileStatus{}, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	return f.status(p), nil
}

func (f *fileMeta) status(p string) FileStatus {
	return FileStatus{Path: p, Length: f.length(), Blocks: len(f.blocks), ModTime: f.modTime, FileID: f.id, Generation: f.gen}
}

// List returns the immediate children of a directory, sorted by path.
func (fs *FileSystem) List(dir string) ([]FileStatus, error) {
	if err := validatePath(dir); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir = path.Clean(dir)
	if !fs.dirs[dir] {
		if _, ok := fs.files[dir]; ok {
			return nil, fmt.Errorf("%s: not a directory", dir)
		}
		return nil, fmt.Errorf("%w: %s", ErrNotFound, dir)
	}
	prefix := dir
	if prefix != "/" {
		prefix += "/"
	}
	var out []FileStatus
	seen := map[string]bool{}
	for p, f := range fs.files {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		rest := p[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			// Deeper file; surface the intermediate directory.
			sub := prefix + rest[:i]
			if !seen[sub] {
				seen[sub] = true
				out = append(out, FileStatus{Path: sub, IsDir: true})
			}
			continue
		}
		out = append(out, f.status(p))
	}
	for d := range fs.dirs {
		if path.Dir(d) == dir && d != "/" && !seen[d] {
			seen[d] = true
			out = append(out, FileStatus{Path: d, IsDir: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Delete removes a file, or a directory when recursive is set.
func (fs *FileSystem) Delete(p string, recursive bool) error {
	if err := validatePath(p); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = path.Clean(p)
	if fs.dirs[p] {
		prefix := p + "/"
		var children []string
		for fp := range fs.files {
			if strings.HasPrefix(fp, prefix) {
				children = append(children, fp)
			}
		}
		if !recursive && len(children) > 0 {
			return fmt.Errorf("%w: %s", ErrNotEmpty, p)
		}
		for _, fp := range children {
			fs.deleteFileLocked(fp)
		}
		for d := range fs.dirs {
			if d == p || strings.HasPrefix(d, prefix) {
				delete(fs.dirs, d)
			}
		}
		return nil
	}
	f, ok := fs.files[p]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	if f.lease != "" {
		return fmt.Errorf("%w: %s", ErrFileOpen, p)
	}
	fs.deleteFileLocked(p)
	return nil
}

func (fs *FileSystem) deleteFileLocked(p string) {
	f := fs.files[p]
	for _, b := range f.blocks {
		for _, dn := range b.locs {
			dn.deleteBlock(b.id)
		}
	}
	delete(fs.files, p)
}

// Rename moves a file to a new path.
func (fs *FileSystem) Rename(from, to string) error {
	if err := validatePath(from); err != nil {
		return err
	}
	if err := validatePath(to); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	from, to = path.Clean(from), path.Clean(to)
	f, ok := fs.files[from]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, from)
	}
	if f.lease != "" {
		return fmt.Errorf("%w: %s", ErrFileOpen, from)
	}
	if _, ok := fs.files[to]; ok {
		return fmt.Errorf("%w: %s", ErrExists, to)
	}
	delete(fs.files, from)
	fs.files[to] = f
	fs.mkdirLocked(path.Dir(to))
	return nil
}

// BlockLocations returns the location of every block of a file, for
// locality-aware work assignment.
func (fs *FileSystem) BlockLocations(p string) ([]BlockLocation, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path.Clean(p)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	var out []BlockLocation
	var off int64
	for _, b := range f.blocks {
		loc := BlockLocation{Offset: off, Length: b.length}
		for _, dn := range b.locs {
			if dn.Alive() {
				loc.Hosts = append(loc.Hosts, dn.Name())
			}
		}
		out = append(out, loc)
		off += b.length
	}
	return out, nil
}

// pickTargets chooses replication targets for a new block. When
// preferred names a live node it becomes the first replica (write
// locality, like HDFS writing the first replica on the local DataNode).
func (fs *FileSystem) pickTargets(preferred string) []*DataNode {
	var targets []*DataNode
	add := func(dn *DataNode) {
		for _, t := range targets {
			if t == dn {
				return
			}
		}
		targets = append(targets, dn)
	}
	if preferred != "" {
		for _, dn := range fs.nodes {
			if dn.Name() == preferred && dn.Alive() {
				add(dn)
			}
		}
	}
	n := len(fs.nodes)
	for i := 0; i < n && len(targets) < fs.cfg.Replication; i++ {
		dn := fs.nodes[(fs.rr+i)%n]
		if dn.Alive() {
			add(dn)
		}
	}
	fs.rr = (fs.rr + 1) % n
	return targets
}

// ReplicationCheck re-replicates blocks that have fewer than the target
// number of live replicas, copying from any live replica. It returns the
// number of new replicas created. A background NameNode thread does this
// continuously in real HDFS; here it runs on demand.
func (fs *FileSystem) ReplicationCheck() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	created := 0
	for _, f := range fs.files {
		for bi := range f.blocks {
			b := &f.blocks[bi]
			var live []*DataNode
			for _, dn := range b.locs {
				if dn.hasBlock(b.id) {
					live = append(live, dn)
				}
			}
			if len(live) == 0 || len(live) >= fs.cfg.Replication {
				if len(live) < len(b.locs) {
					b.locs = live
				}
				continue
			}
			data := make([]byte, b.length)
			//hawqcheck:ignore lockorder — simulated disk latency: the injected clock sleep is virtual (instant) under clock.Sim
			n, err := live[0].readBlock(b.id, 0, data)
			if err != nil {
				continue
			}
			data = data[:n]
			for _, dn := range fs.nodes {
				if len(live) >= fs.cfg.Replication {
					break
				}
				if !dn.Alive() || dn.hasBlock(b.id) {
					continue
				}
				if err := dn.writeBlock(b.id, data); err == nil {
					live = append(live, dn)
					created++
				}
			}
			b.locs = live
		}
	}
	return created
}

// TotalBytes returns the total user bytes stored (one copy, not counting
// replication).
func (fs *FileSystem) TotalBytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var n int64
	for _, f := range fs.files {
		n += f.length()
	}
	return n
}
