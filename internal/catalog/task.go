package catalog

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hawq/internal/tx"
	"hawq/internal/types"
)

// Task kinds: what a hawq_task row asks the scheduler to do.
const (
	TaskKindAnalyze   = "analyze"   // refresh RelStats/ColStats of Target table
	TaskKindCompact   = "compact"   // merge undersized AO segfiles of Target table
	TaskKindStatement = "statement" // execute Target as SQL (CREATE TASK ... AS)
)

// Task states. A task cycles queued → claimed → running → queued (periodic)
// or → done (one-shot). A crashed owner leaves it claimed/running with an
// expired lease; the reclaim sweep moves it back to queued.
const (
	TaskQueued  = "queued"
	TaskClaimed = "claimed"
	TaskRunning = "running"
	TaskDone    = "done"
)

// TaskDesc is the typed view of one hawq_task row: a persistent background
// task. All times are unix nanoseconds on the scheduler's clock.Clock so
// the chaos harness drives them deterministically under clock.Sim.
type TaskDesc struct {
	Name     string
	Kind     string        // TaskKindAnalyze | TaskKindCompact | TaskKindStatement
	Target   string        // table name (analyze/compact) or SQL text (statement)
	Interval time.Duration // 0 = one-shot
	State    string
	// Owner identifies the scheduler instance holding the lease; "" when
	// unclaimed. LeaseExpiry is when the claim stops being honoured.
	Owner       string
	LeaseExpiry int64
	LastRun     int64 // 0 = never ran
	NextRun     int64 // earliest fire time
	Retries     int64 // consecutive failures of the current cycle
	LastError   string
}

// CreateTask registers a background task under the transaction.
func (c *Catalog) CreateTask(t *tx.Tx, d TaskDesc) error {
	name := strings.ToLower(d.Name)
	// The lookup error only says "does not exist" — exactly the state
	// CREATE wants.
	//hawqcheck:ignore errdrop
	existing, _ := c.LookupTask(t.Snapshot(), name)
	if existing != nil {
		return fmt.Errorf("catalog: task %q already exists", name)
	}
	d.Name = name
	if d.State == "" {
		d.State = TaskQueued
	}
	c.insert(t.XID(), SysTask, encodeTaskRow(d))
	return nil
}

// DropTask removes a task.
func (c *Catalog) DropTask(t *tx.Tx, name string) error {
	name = strings.ToLower(name)
	snap := t.Snapshot()
	var victim uint64
	found := false
	c.sys[SysTask].Scan(snap, func(id uint64, row types.Row) bool {
		if row[0].Str() == name {
			victim, found = id, true
			return false
		}
		return true
	})
	if !found {
		return fmt.Errorf("catalog: task %q does not exist", name)
	}
	c.delete(t.XID(), SysTask, victim)
	return nil
}

// UpdateTask replaces a task row by name: an MVCC update (delete old
// version + insert new) so concurrent snapshots keep seeing the previous
// state until this transaction commits — a crash mid-update recovers to
// exactly one of the two versions.
func (c *Catalog) UpdateTask(t *tx.Tx, d TaskDesc) error {
	d.Name = strings.ToLower(d.Name)
	snap := t.Snapshot()
	var oldID uint64
	found := false
	c.sys[SysTask].Scan(snap, func(id uint64, row types.Row) bool {
		if row[0].Str() == d.Name {
			oldID, found = id, true
			return false
		}
		return true
	})
	if !found {
		return fmt.Errorf("catalog: task %q does not exist", d.Name)
	}
	c.delete(t.XID(), SysTask, oldID)
	c.insert(t.XID(), SysTask, encodeTaskRow(d))
	return nil
}

// LookupTask resolves a task by name under a snapshot; (nil, error) when
// absent.
func (c *Catalog) LookupTask(snap tx.Snapshot, name string) (*TaskDesc, error) {
	name = strings.ToLower(name)
	var out *TaskDesc
	c.sys[SysTask].Scan(snap, func(_ uint64, row types.Row) bool {
		if row[0].Str() == name {
			out = decodeTaskRow(row)
			return false
		}
		return true
	})
	if out == nil {
		return nil, fmt.Errorf("catalog: task %q does not exist", name)
	}
	return out, nil
}

// ListTasks returns all visible tasks sorted by name.
func (c *Catalog) ListTasks(snap tx.Snapshot) []*TaskDesc {
	var out []*TaskDesc
	c.sys[SysTask].Scan(snap, func(_ uint64, row types.Row) bool {
		out = append(out, decodeTaskRow(row))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func encodeTaskRow(d TaskDesc) types.Row {
	return types.Row{
		types.NewString(d.Name),
		types.NewString(d.Kind),
		types.NewString(d.Target),
		types.NewInt64(int64(d.Interval)),
		types.NewString(d.State),
		types.NewString(d.Owner),
		types.NewInt64(d.LeaseExpiry),
		types.NewInt64(d.LastRun),
		types.NewInt64(d.NextRun),
		types.NewInt64(d.Retries),
		types.NewString(d.LastError),
	}
}

func decodeTaskRow(row types.Row) *TaskDesc {
	return &TaskDesc{
		Name:        row[0].Str(),
		Kind:        row[1].Str(),
		Target:      row[2].Str(),
		Interval:    time.Duration(row[3].Int()),
		State:       row[4].Str(),
		Owner:       row[5].Str(),
		LeaseExpiry: row[6].Int(),
		LastRun:     row[7].Int(),
		NextRun:     row[8].Int(),
		Retries:     row[9].Int(),
		LastError:   row[10].Str(),
	}
}
