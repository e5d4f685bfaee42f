package hdfs

import (
	"fmt"
	"sync"

	"hawq/internal/clock"
)

// DataNode stores block replicas across a set of simulated disk volumes.
// A DataNode can be killed (node failure) and individual volumes can be
// failed (disk failure); both are visible to readers as replica loss.
type DataNode struct {
	name string
	io   *IOModel
	clk  clock.Clock

	mu      sync.RWMutex
	alive   bool
	volumes []*volume
	// blockVol maps a block to the volume index storing it.
	blockVol map[BlockID]int
}

// volume is one simulated disk. Failed volumes refuse all access.
type volume struct {
	failed bool
	blocks map[BlockID][]byte
	used   int64
}

func newDataNode(name string, volumes int, io *IOModel, clk clock.Clock) *DataNode {
	dn := &DataNode{
		name:     name,
		io:       io,
		clk:      clk,
		alive:    true,
		blockVol: make(map[BlockID]int),
	}
	for i := 0; i < volumes; i++ {
		dn.volumes = append(dn.volumes, &volume{blocks: make(map[BlockID][]byte)})
	}
	return dn
}

// Name returns the DataNode's host name.
func (dn *DataNode) Name() string { return dn.name }

// Alive reports whether the node is up.
func (dn *DataNode) Alive() bool {
	dn.mu.RLock()
	defer dn.mu.RUnlock()
	return dn.alive
}

// Kill marks the node down. Blocks stored on it become unreadable until
// Restart.
func (dn *DataNode) Kill() {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	dn.alive = false
}

// Restart brings a killed node back with its blocks intact (a node
// reboot, not a disk wipe).
func (dn *DataNode) Restart() {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	dn.alive = true
}

// FailVolume fails the i'th disk volume, dropping its blocks, and returns
// the IDs of the blocks that were lost. It mirrors HDFS removing a failed
// disk from the list of valid volumes (§2.6).
func (dn *DataNode) FailVolume(i int) []BlockID {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	if i < 0 || i >= len(dn.volumes) {
		return nil
	}
	v := dn.volumes[i]
	v.failed = true
	var lost []BlockID
	for id := range v.blocks {
		lost = append(lost, id)
		delete(dn.blockVol, id)
	}
	v.blocks = nil
	return lost
}

// pickVolume returns the index of a healthy volume with the least usage,
// or -1 if all volumes have failed.
func (dn *DataNode) pickVolume() int {
	best, bestUsed := -1, int64(0)
	for i, v := range dn.volumes {
		if v.failed {
			continue
		}
		if best == -1 || v.used < bestUsed {
			best, bestUsed = i, v.used
		}
	}
	return best
}

// writeBlock stores (or overwrites) a block replica.
func (dn *DataNode) writeBlock(id BlockID, data []byte) error {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	if !dn.alive {
		return fmt.Errorf("datanode %s: %w", dn.name, ErrNoDataNodes)
	}
	vi, ok := dn.blockVol[id]
	if !ok {
		vi = dn.pickVolume()
		if vi < 0 {
			return fmt.Errorf("datanode %s: all volumes failed", dn.name)
		}
		dn.blockVol[id] = vi
	}
	v := dn.volumes[vi]
	if old, ok := v.blocks[id]; ok {
		v.used -= int64(len(old))
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	v.blocks[id] = cp
	v.used += int64(len(cp))
	return nil
}

// appendBlock appends data to an existing replica (or creates it).
func (dn *DataNode) appendBlock(id BlockID, data []byte) error {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	if !dn.alive {
		return fmt.Errorf("datanode %s: %w", dn.name, ErrNoDataNodes)
	}
	vi, ok := dn.blockVol[id]
	if !ok {
		vi = dn.pickVolume()
		if vi < 0 {
			return fmt.Errorf("datanode %s: all volumes failed", dn.name)
		}
		dn.blockVol[id] = vi
	}
	v := dn.volumes[vi]
	v.blocks[id] = append(v.blocks[id], data...)
	v.used += int64(len(data))
	return nil
}

// readBlock copies the block's bytes from off onward into p and returns
// how many it copied (fewer than len(p) only when the replica ends
// first). The reader's buffer is filled straight from the replica under
// the read lock — the only copy a read makes — and the I/O model is
// charged for the bytes moved once the lock is released.
func (dn *DataNode) readBlock(id BlockID, off int64, p []byte) (int, error) {
	dn.mu.RLock()
	if !dn.alive {
		dn.mu.RUnlock()
		return 0, fmt.Errorf("datanode %s down: %w", dn.name, ErrBlockLost)
	}
	vi, ok := dn.blockVol[id]
	if !ok {
		dn.mu.RUnlock()
		return 0, fmt.Errorf("datanode %s: %w", dn.name, ErrBlockLost)
	}
	data := dn.volumes[vi].blocks[id]
	if off > int64(len(data)) {
		dn.mu.RUnlock()
		return 0, fmt.Errorf("datanode %s: read past block end", dn.name)
	}
	n := copy(p, data[off:])
	dn.mu.RUnlock()
	if d := dn.io.delay(n); d > 0 {
		dn.clk.Sleep(d)
	}
	return n, nil
}

// truncateBlock shortens a replica to length n.
func (dn *DataNode) truncateBlock(id BlockID, n int64) error {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	vi, ok := dn.blockVol[id]
	if !ok {
		return fmt.Errorf("datanode %s: %w", dn.name, ErrBlockLost)
	}
	v := dn.volumes[vi]
	data := v.blocks[id]
	if n > int64(len(data)) {
		return ErrBadLength
	}
	v.used -= int64(len(data)) - n
	v.blocks[id] = data[:n:n]
	return nil
}

// deleteBlock removes a replica if present.
func (dn *DataNode) deleteBlock(id BlockID) {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	vi, ok := dn.blockVol[id]
	if !ok {
		return
	}
	v := dn.volumes[vi]
	v.used -= int64(len(v.blocks[id]))
	delete(v.blocks, id)
	delete(dn.blockVol, id)
}

// hasBlock reports whether a live replica of id exists here.
func (dn *DataNode) hasBlock(id BlockID) bool {
	dn.mu.RLock()
	defer dn.mu.RUnlock()
	if !dn.alive {
		return false
	}
	_, ok := dn.blockVol[id]
	return ok
}

// Used returns the total bytes stored on this node.
func (dn *DataNode) Used() int64 {
	dn.mu.RLock()
	defer dn.mu.RUnlock()
	var total int64
	for _, v := range dn.volumes {
		total += v.used
	}
	return total
}
