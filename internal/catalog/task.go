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
	Kind     string        // TaskKindCompact | TaskKindStatement
	Target   string        // table name (compact) or SQL text (statement)
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
	d.Name = strings.ToLower(d.Name)
	if _, exists := selectOne(c.sys[SysTask], t.Snapshot(), nameIs(d.Name), decodeTaskRow); exists {
		return fmt.Errorf("catalog: task %q already exists", d.Name)
	}
	if d.State == "" {
		d.State = TaskQueued
	}
	c.insert(t, SysTask, encodeTaskRow(d))
	return nil
}

// DropTask removes a task.
func (c *Catalog) DropTask(t *tx.Tx, name string) error {
	name = strings.ToLower(name)
	old, err := c.deleteWhere(t, t.Snapshot(), SysTask, nameIs(name))
	if err == nil && len(old) == 0 {
		err = fmt.Errorf("catalog: task %q does not exist", name)
	}
	return err
}

// UpdateTask replaces a task row by name: an MVCC update (delete old
// version + insert new) so concurrent snapshots keep seeing the previous
// state until this transaction commits — a crash mid-update recovers to
// exactly one of the two versions. Two transactions updating one task
// cannot both commit: the second gets ErrConcurrentUpdate.
func (c *Catalog) UpdateTask(t *tx.Tx, d TaskDesc) error {
	d.Name = strings.ToLower(d.Name)
	n, err := c.replace(t, t.Snapshot(), SysTask, nameIs(d.Name), func(row types.Row) error {
		copy(row, encodeTaskRow(d))
		return nil
	})
	if err == nil && n == 0 {
		err = fmt.Errorf("catalog: task %q does not exist", d.Name)
	}
	return err
}

// LookupTask resolves a task by name under a snapshot; (nil, error) when
// absent.
func (c *Catalog) LookupTask(snap tx.Snapshot, name string) (*TaskDesc, error) {
	name = strings.ToLower(name)
	if d, ok := selectOne(c.sys[SysTask], snap, nameIs(name), decodeTaskRow); ok {
		return d, nil
	}
	return nil, fmt.Errorf("catalog: task %q does not exist", name)
}

// ListTasks returns all visible tasks sorted by name.
func (c *Catalog) ListTasks(snap tx.Snapshot) []*TaskDesc {
	out := selectAll(c.sys[SysTask], snap, nil, decodeTaskRow)
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
