package wal

import (
	"errors"
	"fmt"
	"sync"
)

// ErrCrashed is returned by every operation on a FaultDisk after its
// crash point fires: the process-side model of a machine that lost
// power. Recovery happens on the disk returned by Survive.
var ErrCrashed = errors.New("wal: disk crashed")

// CrashPlan schedules a deterministic crash. The zero value never
// crashes. Exactly one trigger is normally set:
//
//   - SyncIndex n (1-based) crashes at the n-th Sync. Frac controls how
//     much of that sync's pending bytes reach stable storage first:
//     0 = none, 0<f<1 = a torn prefix (partial fsync), and ≥1 = the sync
//     completes and reports success, with the crash landing immediately
//     after (the "ack lost just past durability" boundary).
//   - WriteByte b (>0) crashes mid-write once b total bytes have been
//     written: the write applies a torn prefix up to the boundary and
//     fails, exercising crash points at any byte boundary.
type CrashPlan struct {
	SyncIndex int
	Frac      float64
	WriteByte int64
	// SurviveUnsynced makes Survive keep unsynced written bytes too,
	// modeling an OS that flushed page-cache pages the process never
	// fsynced — legal behaviour a correct log must tolerate, and the
	// way torn tails beyond the durable watermark become visible.
	SurviveUnsynced bool
}

type faultFile struct {
	content []byte // everything written (the page cache)
	durable int    // prefix length on stable storage
}

// FaultDisk is a deterministic in-memory Disk with fault injection: it
// tracks a durable watermark per file, counts writes and syncs so a
// harness can enumerate every crash boundary, and crashes on the
// configured CrashPlan. All methods are safe for concurrent use.
type FaultDisk struct {
	mu      sync.Mutex
	files   map[string]*faultFile
	plan    CrashPlan
	crashed bool
	writes  int
	syncs   int
	bytes   int64
}

// NewFaultDisk returns an empty fault-injecting disk.
func NewFaultDisk() *FaultDisk {
	return &FaultDisk{files: map[string]*faultFile{}}
}

// SetCrash arms the crash plan. Call before handing the disk to a log.
func (d *FaultDisk) SetCrash(p CrashPlan) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.plan = p
}

// Counts reports the operations performed so far: the crash-point matrix
// runs a golden pass, reads Counts, and then replays once per boundary.
func (d *FaultDisk) Counts() (writes, syncs int, bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes, d.syncs, d.bytes
}

// Crashed reports whether the crash point has fired.
func (d *FaultDisk) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// Survive returns the disk a rebooted machine would see: every file cut
// to its durable watermark (or, with SurviveUnsynced, the full page
// cache), counters reset, no crash armed.
func (d *FaultDisk) Survive() *FaultDisk {
	d.mu.Lock()
	defer d.mu.Unlock()
	nd := NewFaultDisk()
	for name, f := range d.files {
		keep := f.durable
		if d.plan.SurviveUnsynced {
			keep = len(f.content)
		}
		nd.files[name] = &faultFile{
			content: append([]byte(nil), f.content[:keep]...),
			durable: keep,
		}
	}
	return nd
}

// Create implements Disk.
func (d *FaultDisk) Create(name string) (File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return nil, ErrCrashed
	}
	d.files[name] = &faultFile{}
	return &faultHandle{d: d, name: name}, nil
}

// ReadFile implements Disk. Reads observe the page cache (everything
// written), as real reads on a live machine do.
func (d *FaultDisk) ReadFile(name string) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return nil, ErrCrashed
	}
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("wal: %s: file does not exist", name)
	}
	return append([]byte(nil), f.content...), nil
}

// List implements Disk.
func (d *FaultDisk) List() ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return nil, ErrCrashed
	}
	out := make([]string, 0, len(d.files))
	for name := range d.files {
		out = append(out, name)
	}
	return out, nil
}

// Rename implements Disk. The rename itself is atomic and durable, as
// checkpoint installation requires; the file's own durability is
// whatever it was.
func (d *FaultDisk) Rename(oldName, newName string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	f, ok := d.files[oldName]
	if !ok {
		return fmt.Errorf("wal: %s: file does not exist", oldName)
	}
	delete(d.files, oldName)
	d.files[newName] = f
	return nil
}

// Remove implements Disk.
func (d *FaultDisk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	if _, ok := d.files[name]; !ok {
		return fmt.Errorf("wal: %s: file does not exist", name)
	}
	delete(d.files, name)
	return nil
}

type faultHandle struct {
	d    *FaultDisk
	name string
}

// Write appends to the page cache, tearing at the planned byte boundary.
func (h *faultHandle) Write(p []byte) (int, error) {
	d := h.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return 0, ErrCrashed
	}
	f, ok := d.files[h.name]
	if !ok {
		return 0, fmt.Errorf("wal: %s: file does not exist", h.name)
	}
	d.writes++
	keep := len(p)
	if wb := d.plan.WriteByte; wb > 0 && d.bytes+int64(len(p)) >= wb {
		keep = min(max(int(wb-d.bytes), 0), len(p))
		f.content = append(f.content, p[:keep]...)
		d.bytes += int64(keep)
		d.crashed = true
		return keep, ErrCrashed
	}
	f.content = append(f.content, p...)
	d.bytes += int64(keep)
	return len(p), nil
}

// Sync advances the durable watermark, honoring partial-fsync crashes.
func (h *faultHandle) Sync() error {
	d := h.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	f, ok := d.files[h.name]
	if !ok {
		return fmt.Errorf("wal: %s: file does not exist", h.name)
	}
	d.syncs++
	if d.plan.SyncIndex > 0 && d.syncs == d.plan.SyncIndex {
		pending := len(f.content) - f.durable
		if d.plan.Frac >= 1 {
			// The fsync itself completed; the crash lands right after,
			// so this call succeeds and every later operation fails.
			f.durable = len(f.content)
			d.crashed = true
			return nil
		}
		f.durable += int(d.plan.Frac * float64(pending))
		d.crashed = true
		return ErrCrashed
	}
	f.durable = len(f.content)
	return nil
}

// Close implements File.
func (h *faultHandle) Close() error { return nil }
