// Package hdfs implements an in-process simulation of the Hadoop
// Distributed File System as used by HAWQ: a NameNode owning the
// namespace, block map and leases; DataNodes storing replicated blocks
// on (simulated) disk volumes; and a client API modeled after libhdfs3.
//
// Beyond stock HDFS, the package implements the truncate(path, length)
// operation the paper adds for transaction rollback (§5.3), with the
// paper's semantics: single writer/appender/truncater per file, truncation
// only of closed files, atomicity, and an error when the requested length
// exceeds the file length.
//
// Failure injection — killing DataNodes and failing individual disk
// volumes — exercises the same code paths that hardware faults trigger in
// a real deployment (§2.6).
package hdfs

import (
	"errors"
	"fmt"
	"hawq/internal/clock"
	"time"
)

// DefaultBlockSize is the block size used when Config.BlockSize is zero.
// It is deliberately small (the simulation targets laptop-scale data) but
// plays the same architectural role as HDFS's 128MB blocks.
const DefaultBlockSize = 256 * 1024

// DefaultReplication is the replication factor used when
// Config.Replication is zero. It is capped by the number of DataNodes.
const DefaultReplication = 3

// Config configures a simulated HDFS cluster.
type Config struct {
	// DataNodes is the number of DataNodes to start.
	DataNodes int
	// VolumesPerNode is the number of disk volumes per DataNode.
	VolumesPerNode int
	// BlockSize is the maximum bytes per block.
	BlockSize int
	// Replication is the target number of replicas per block.
	Replication int
	// IO optionally models disk latency and bandwidth; nil disables
	// the model and reads/writes run at memory speed.
	IO *IOModel
	// Clock supplies file modification times and paces modeled IO
	// sleeps; nil means the wall clock. Simulations inject clock.Sim
	// for deterministic replay.
	Clock clock.Clock
}

// IOModel models disk access cost for the IO-bound experiment regime
// (Figure 7). When attached, every block read sleeps SeekLatency plus
// len/BytesPerSec.
type IOModel struct {
	SeekLatency time.Duration
	BytesPerSec float64
}

func (m *IOModel) delay(n int) time.Duration {
	if m == nil {
		return 0
	}
	d := m.SeekLatency
	if m.BytesPerSec > 0 {
		d += time.Duration(float64(n) / m.BytesPerSec * float64(time.Second))
	}
	return d
}

// Common errors returned by the client API.
var (
	ErrNotFound      = errors.New("hdfs: file not found")
	ErrExists        = errors.New("hdfs: file already exists")
	ErrLeaseHeld     = errors.New("hdfs: lease held by another writer")
	ErrFileOpen      = errors.New("hdfs: file is open for write")
	ErrBadLength     = errors.New("hdfs: truncate length exceeds file length")
	ErrNoDataNodes   = errors.New("hdfs: no live DataNodes available")
	ErrBlockLost     = errors.New("hdfs: block unavailable on all replicas")
	ErrClosed        = errors.New("hdfs: operation on closed handle")
	ErrIsDirectory   = errors.New("hdfs: path is a directory")
	ErrNotEmpty      = errors.New("hdfs: directory not empty")
	ErrInvalidConfig = errors.New("hdfs: invalid configuration")
)

// BlockID identifies a block cluster-wide.
type BlockID uint64

// FileStatus describes a file or directory, as returned by Stat and List.
type FileStatus struct {
	Path    string
	IsDir   bool
	Length  int64
	Blocks  int
	ModTime time.Time
	// FileID identifies the file itself rather than its path: it is
	// assigned at creation, survives Rename and is never reused.
	// Generation counts the truncations that shortened the file. Bytes
	// read at an offset stay valid for as long as both are unchanged
	// (files are append-only otherwise). Both are zero for directories.
	FileID     uint64
	Generation uint64
}

// BlockLocation reports where one block of a file lives, for
// locality-aware scheduling (used by PXF and the query planner).
type BlockLocation struct {
	Offset int64
	Length int64
	// Hosts are the DataNode names holding a replica.
	Hosts []string
}

func validatePath(p string) error {
	if len(p) == 0 || p[0] != '/' {
		return fmt.Errorf("hdfs: path %q must be absolute", p)
	}
	return nil
}
