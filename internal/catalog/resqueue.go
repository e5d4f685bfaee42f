package catalog

import (
	"fmt"
	"sort"
	"strings"

	"hawq/internal/tx"
	"hawq/internal/types"
)

// ResQueueDesc describes one resource queue row of hawq_resqueue: the
// workload manager's admission-control object (paper §2.1's resource
// manager). Limits are stored resolved — ActiveStatements as a count,
// MemLimit as bytes — so every reader agrees on their meaning.
type ResQueueDesc struct {
	Name string
	// ActiveStatements caps concurrently executing statements admitted
	// through the queue (0 = unlimited).
	ActiveStatements int64
	// MemLimit is the per-query memory grant in bytes (0 = unlimited).
	MemLimit int64
}

// CreateResourceQueue registers a resource queue under the transaction.
func (c *Catalog) CreateResourceQueue(t *tx.Tx, d ResQueueDesc) error {
	name := strings.ToLower(d.Name)
	if _, exists := selectOne(c.sys[SysResQueue], t.Snapshot(), nameIs(name), decodeResQueueRow); exists {
		return fmt.Errorf("catalog: resource queue %q already exists", name)
	}
	c.insert(t, SysResQueue, types.Row{
		types.NewString(name),
		types.NewInt64(d.ActiveStatements),
		types.NewInt64(d.MemLimit),
	})
	return nil
}

// DropResourceQueue removes a resource queue.
func (c *Catalog) DropResourceQueue(t *tx.Tx, name string) error {
	name = strings.ToLower(name)
	old, err := c.deleteWhere(t, t.Snapshot(), SysResQueue, nameIs(name))
	if err == nil && len(old) == 0 {
		err = fmt.Errorf("catalog: resource queue %q does not exist", name)
	}
	return err
}

// ListResourceQueues returns all visible queues sorted by name.
func (c *Catalog) ListResourceQueues(snap tx.Snapshot) []*ResQueueDesc {
	out := selectAll(c.sys[SysResQueue], snap, nil, decodeResQueueRow)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func decodeResQueueRow(row types.Row) *ResQueueDesc {
	return &ResQueueDesc{
		Name:             row[0].Str(),
		ActiveStatements: row[1].Int(),
		MemLimit:         row[2].Int(),
	}
}
