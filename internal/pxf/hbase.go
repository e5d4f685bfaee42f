package pxf

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

	"hawq/internal/expr"
	"hawq/internal/types"
)

// HBase is an in-memory stand-in for the HBase store the paper's PXF
// connects to (§6.1's sales example): tables of rows sorted by row key,
// values addressed by "family:qualifier", split into contiguous-range
// regions that become scan fragments. The real store is external
// infrastructure; this reproduction exercises the same connector code
// paths — region fragments, locality-free assignment, and row-key filter
// pushdown.
type HBase struct {
	mu     sync.RWMutex
	tables map[string]*HTable
}

// HTable is one HBase table.
type HTable struct {
	mu      sync.RWMutex
	name    string
	regions int
	rows    map[string]map[string]string // rowkey -> column -> value
}

// NewHBase creates an empty store.
func NewHBase() *HBase {
	return &HBase{tables: map[string]*HTable{}}
}

// CreateTable creates a table pre-split into the given number of regions.
func (h *HBase) CreateTable(name string, regions int) *HTable {
	if regions < 1 {
		regions = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	t := &HTable{name: name, regions: regions, rows: map[string]map[string]string{}}
	h.tables[name] = t
	return t
}

// Table resolves a table by name.
func (h *HBase) Table(name string) (*HTable, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	t, ok := h.tables[name]
	return t, ok
}

// Put stores one cell.
func (t *HTable) Put(rowkey, column, value string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rows[rowkey]
	if r == nil {
		r = map[string]string{}
		t.rows[rowkey] = r
	}
	r[column] = value
}

// sortedKeys returns the row keys in order.
func (t *HTable) sortedKeys() []string {
	keys := make([]string, 0, len(t.rows))
	for k := range t.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// HBaseConnector scans HBase tables through PXF. The location path names
// the table: pxf://svc/<table>?profile=hbase. The schema's first column
// is the row key ("recordkey"); the remaining columns name
// "family:qualifier" cells.
type HBaseConnector struct {
	Store *HBase
	// pushdownHits counts rows skipped by row-key filter pushdown, for
	// observability and tests (§6.3).
	mu           sync.Mutex
	pushdownHits int64
}

// PushdownHits reports how many rows the connector skipped at the store
// thanks to filter pushdown.
func (c *HBaseConnector) PushdownHits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pushdownHits
}

func (c *HBaseConnector) table(req *Request) (*HTable, error) {
	name := strings.TrimPrefix(req.Loc.Path, "/")
	t, ok := c.Store.Table(name)
	if !ok {
		return nil, fmt.Errorf("pxf hbase: no table %q", name)
	}
	return t, nil
}

// Fragments implements Fragmenter: one fragment per region (a contiguous
// row-key range).
func (c *HBaseConnector) Fragments(req *Request) ([]Fragment, error) {
	t, err := c.table(req)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Fragment, t.regions)
	for i := range out {
		out[i] = Fragment{Index: i, Source: t.name}
	}
	return out, nil
}

// ReadFragment implements Accessor: under the table's read lock it walks
// the fragment's key range, skipping each key a pushed-down comparison on
// the row key (column 0) refuses — one it cannot decide admits the key;
// comparisons on other columns are the executor's (§6.3) — and encodes
// the admitted rows per the request schema. The reader serves that
// snapshot and holds no lock, so a Put between two Next calls is neither
// seen nor waited for.
func (c *HBaseConnector) ReadFragment(req *Request, f Fragment) (RecordReader, error) {
	t, err := c.table(req)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	keys := t.sortedKeys()
	// Region i covers an equal slice of the sorted keyspace.
	per := (len(keys) + t.regions - 1) / t.regions
	lo := min(f.Index*per, len(keys))
	hi := min(lo+per, len(keys))
	// The snapshot is in the sequence connector's framing.
	r := &seqReader{}
	var rec []byte
	row := make(types.Row, req.Schema.Len())
	skipped := int64(0)
	for _, key := range keys[lo:hi] {
		if !admitsKey(req.Filter, key) {
			skipped++
			continue
		}
		cells := t.rows[key]
		row[0] = types.NewString(key)
		for i := 1; i < req.Schema.Len(); i++ {
			col := req.Schema.Columns[i]
			v, ok := cells[col.Name]
			if !ok {
				row[i] = types.Null
				continue
			}
			d, err := types.CastScale(types.NewString(v), col.Kind, col.Scale)
			if err != nil {
				return nil, fmt.Errorf("pxf hbase: cell %s of %s: %w", col.Name, key, err)
			}
			row[i] = d
		}
		rec = types.EncodeRow(rec[:0], row)
		r.data = binary.AppendUvarint(r.data, uint64(len(rec)))
		r.data = append(r.data, rec...)
	}
	c.mu.Lock()
	c.pushdownHits += skipped
	c.mu.Unlock()
	return r, nil
}

// admitsKey reports whether no comparison on the row key refuses key.
func admitsKey(filter []expr.ColCmp, key string) bool {
	for _, c := range filter {
		if c.Col == 0 && !c.Admits(types.NewString(key)) {
			return false
		}
	}
	return true
}

// Resolve implements Resolver.
func (c *HBaseConnector) Resolve(req *Request, record []byte) (types.Row, error) {
	row, _, err := types.DecodeRow(record)
	if err != nil {
		return nil, fmt.Errorf("pxf hbase: %w", err)
	}
	// The row key column may be BYTEA in the table definition.
	if req.Schema.Columns[0].Kind == types.KindBytes && row[0].K == types.KindString {
		row[0] = types.NewBytes([]byte(row[0].Str()))
	}
	return row, nil
}

// Estimate implements the optional Analyzer plugin (§6.4).
func (c *HBaseConnector) Estimate(req *Request) (int64, int64, error) {
	t, err := c.table(req)
	if err != nil {
		return 0, 0, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	var rows, bytes int64
	for k, cells := range t.rows {
		rows++
		bytes += int64(len(k))
		for col, v := range cells {
			bytes += int64(len(col) + len(v))
		}
	}
	return rows, bytes, nil
}
