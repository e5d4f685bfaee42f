package executor

import (
	"hawq/internal/obs"
	"hawq/internal/resource"
	"hawq/internal/types"
)

// Spill geometry: overflowing operators partition their state into
// spillFanout workfiles per level and recurse on partitions that still
// don't fit, salting the partition hash with the level so each level
// redistributes. Past maxSpillLevel an operator stops recursing and
// processes the partition in memory — with a pathological key
// distribution (every row one key) no amount of partitioning helps, so
// degrading gracefully beats spilling forever.
const (
	spillFanout   = 8
	maxSpillLevel = 6
)

// datumMem approximates the in-memory footprint of one Datum (the
// struct itself; string payloads are counted separately).
const datumMem = 40

// rowMem is what one retained row is charged to the query's grant: its
// Datum cells in the operator's rowStore, its string payloads, and 24
// bytes of bookkeeping — for a row of a keyTable (a join's build row, an
// aggregate's group key, a DISTINCT row or value) the key hash (8), the
// chain link (4 to 8) and its share of the directory (4 to 8); for a sort
// or a nested loop the row's slice header. An estimate is all accounting
// needs — the budget triggers spilling, it doesn't malloc.
func rowMem(r types.Row) int64 {
	n := int64(24 + datumMem*len(r))
	for _, d := range r {
		n += int64(len(d.S))
	}
	return n
}

// partOfHash assigns a key hash (types.HashKeys: a join's key, an
// aggregate's group key) to one of the spillFanout partitions of a
// recursion level. The level is folded in as one more key column, then
// mixed, so rows that fell into one partition at level L spread over all
// of them at level L+1, and the partition says nothing about the bits
// that index the table the partition is later loaded into.
func partOfHash(h uint64, level int) int {
	return int(types.Mix64(types.FoldKey(h, uint64(level))) % spillFanout)
}

// workMem is the plan's work_mem soft cap in bytes (0 = none).
func (ctx *Context) workMem() int64 {
	if ctx.Plan == nil {
		return 0
	}
	return ctx.Plan.WorkMem
}

// spillable reports whether budget-triggered spilling is available
// (the dispatcher gave this node a workfile store and a work_mem cap).
func (ctx *Context) spillable() bool {
	return ctx.Work != nil && ctx.workMem() > 0
}

// memBudget tracks one operator's reservation against the query's
// memory account and its work_mem soft cap. Not goroutine-safe — each
// operator owns one.
type memBudget struct {
	ctx  *Context
	used int64
	// st, when stats are collected, receives the reservation high-water
	// mark (OpStats.PeakMem).
	st *obs.OpStats
}

// notePeak records the current reservation as the operator's peak if it
// is a new high-water mark.
func (m *memBudget) notePeak() {
	if m.st != nil && m.used > m.st.PeakMem {
		m.st.PeakMem = m.used
	}
}

// grow reserves n more bytes. over=true tells a spillable caller to
// stop growing and spill (soft cap crossed, or the hard grant refused
// the reservation and spilling can release it); err is the clean OOM
// error when the hard grant is exhausted and spilling can't help.
func (m *memBudget) grow(n int64) (over bool, err error) {
	if err := m.ctx.Mem.Grow(n); err != nil {
		if m.ctx.spillable() {
			return true, nil
		}
		return false, err
	}
	m.used += n
	m.notePeak()
	if m.ctx.spillable() && m.used > m.ctx.workMem() {
		return true, nil
	}
	return false, nil
}

// growHard reserves n bytes against the hard grant only, ignoring the
// work_mem soft cap — the path for operators (or spill levels) that
// cannot degrade any further, where exceeding the grant is a real OOM.
func (m *memBudget) growHard(n int64) error {
	if err := m.ctx.Mem.Grow(n); err != nil {
		return err
	}
	m.used += n
	m.notePeak()
	return nil
}

// releaseAll returns the whole reservation (operator teardown, or the
// hand-off between spill partitions).
func (m *memBudget) releaseAll() {
	m.ctx.Mem.Shrink(m.used)
	m.used = 0
}

// spillPartition routes rows into fanout workfiles by key partition. A
// probe row with a NULL join key goes where its hash goes all the same —
// it matches nothing, but outer-join semantics may still need to emit it.
type spillPartition struct {
	files []*resource.File
	level int
	// st, when stats are collected, is charged the partition's workfile
	// traffic (bytes written, files created) at finish time.
	st *obs.OpStats
}

// newSpillPartition creates the fanout files for one spill level. st
// may be nil (no stats collection).
func newSpillPartition(ctx *Context, level int, st *obs.OpStats) (*spillPartition, error) {
	sp := &spillPartition{files: make([]*resource.File, spillFanout), level: level, st: st}
	for i := range sp.files {
		f, err := ctx.Work.Create()
		if err != nil {
			sp.remove()
			return nil, err
		}
		sp.files[i] = f
	}
	resource.NoteSpillLevel(level)
	return sp, nil
}

// addHash writes a row to the partition of its key hash (AppendRow copies
// the row, so it is not retained).
func (sp *spillPartition) addHash(h uint64, row types.Row) error {
	return sp.files[partOfHash(h, sp.level)].AppendRow(row)
}

// finish completes the write phase of every partition file and charges
// the written traffic to the owning operator's stats. Re-spills at
// deeper levels are charged again — the stats measure spill traffic,
// not live footprint.
func (sp *spillPartition) finish() error {
	for _, f := range sp.files {
		if err := f.Finish(); err != nil {
			return err
		}
	}
	if sp.st != nil {
		for _, f := range sp.files {
			sp.st.SpillBytes += f.Bytes()
			sp.st.SpillFiles++
		}
	}
	return nil
}

// remove deletes every partition file (teardown / error paths).
func (sp *spillPartition) remove() {
	if sp == nil {
		return
	}
	for _, f := range sp.files {
		if f != nil {
			f.Remove()
		}
	}
}
