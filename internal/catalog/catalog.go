package catalog

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hawq/internal/tx"
	"hawq/internal/types"
)

// Orientation names for StorageSpec.
const (
	OrientRow     = "row"     // AO: row-oriented append-only (§2.5)
	OrientColumn  = "column"  // CO: column-per-file
	OrientParquet = "parquet" // PAX-style row groups
)

// DistPolicy is a table's data distribution policy (§2.3).
type DistPolicy struct {
	// Random selects round-robin distribution.
	Random bool
	// Cols are the hash-distribution column indexes (ignored when
	// Random).
	Cols []int
}

// String renders the policy for EXPLAIN and pg_class-style output.
func (d DistPolicy) String() string {
	if d.Random {
		return "RANDOMLY"
	}
	parts := make([]string, len(d.Cols))
	for i, c := range d.Cols {
		parts[i] = strconv.Itoa(c)
	}
	return "HASH(" + strings.Join(parts, ",") + ")"
}

// StorageSpec selects the on-disk format of a table (§2.5).
type StorageSpec struct {
	// Orientation is OrientRow, OrientColumn or OrientParquet.
	Orientation string
	// Codec is a compress codec name ("none", "quicklz", "zlib-5", ...).
	Codec string
}

// PartitionKind classifies partitioned parents and their children.
type PartitionKind uint8

// Partition kinds.
const (
	PartNone PartitionKind = iota
	PartRange
	PartList
)

// TableDesc describes a table: the typed view assembled from the
// hawq_class and hawq_attribute system tables.
type TableDesc struct {
	OID     int64
	Name    string
	Schema  *types.Schema
	Dist    DistPolicy
	Storage StorageSpec

	// Partitioning. A parent has PartKind set and children pointing back
	// via ParentOID; each child carries its bounds.
	PartKind  PartitionKind
	PartCol   int
	ParentOID int64
	// Range child bounds: [RangeLo, RangeHi).
	RangeLo, RangeHi types.Datum
	// List child values.
	ListValues []types.Datum

	// External tables (PXF, §6): Location is the pxf:// URI.
	Location string
	Format   string
}

// IsExternal reports whether this is a PXF external table.
func (t *TableDesc) IsExternal() bool { return t.Location != "" }

// IsPartitionParent reports whether the table is a partitioned parent.
func (t *TableDesc) IsPartitionParent() bool { return t.PartKind != PartNone && t.ParentOID == 0 }

// IsPartitionChild reports whether the table is a partition of a parent.
func (t *TableDesc) IsPartitionChild() bool { return t.ParentOID != 0 }

// SegFile is one HDFS data file of a table on one segment: the unit of
// the swimming-lane concurrent insert protocol (§5.4). LogicalLen is the
// committed length; bytes beyond it are garbage from aborted inserts.
// Column-oriented tables store each column in a separate file, so they
// carry one committed length per column in ColLens (Path is then the
// common prefix; column i lives at Path + ".c" + i).
type SegFile struct {
	TableOID   int64
	SegmentID  int
	SegNo      int
	Path       string
	LogicalLen int64
	Tuples     int64
	ColLens    []int64
	// Stats is the lane's column statistics, read only by LaneSegFiles: no scan plan carries them.
	Stats string
}

// RelStats carries planner statistics for a table (§6.3, ANALYZE).
type RelStats struct {
	Rows int64
}

// ColStats carries per-column statistics.
type ColStats struct {
	NDistinct float64
	NullFrac  float64
	Min, Max  types.Datum
}

// SegmentInfo describes one registered segment (system information
// catalog, §2.2).
type SegmentInfo struct {
	ID     int
	Host   string
	Port   int
	Status string // "up" or "down"
}

// Catalog is the unified catalog service. All access is by transaction
// snapshot; all mutations are WAL-logged. The WAL is held through an
// atomic pointer so promotion can swap it (the promoted standby starts a
// fresh log epoch) while queries are in flight.
type Catalog struct {
	mu      sync.Mutex
	wal     atomic.Pointer[tx.WAL]
	sys     map[string]*SysTable
	nextOID int64
	// onMutation, when set, is called with the writing XID for every
	// mutation of a plan-relevant system table (see planRelevant). The
	// cluster wires it to tx.Manager.MarkCatalogChange so committed
	// catalog changes bump the plan-cache version.
	onMutation atomic.Pointer[func(tx.XID)]
	merged     sync.Map // table OID -> *merged: ColStatsOf's last merge
}

// planRelevant lists the system tables whose contents feed planning:
// schemas, distribution, segment files (data visibility), statistics,
// and segment status. Mutating any of them must invalidate cached plans;
// churn counters, task rows, and resource queues do not affect plan
// shape or results.
var planRelevant = map[string]bool{
	SysClass:     true,
	SysAttribute: true,
	SysAoseg:     true,
	SysStatRel:   true,
	SysSegment:   true,
}

// SetMutationHook registers fn to observe plan-relevant catalog writes
// (nil unregisters). The hook runs on the writer's goroutine while the
// writing transaction is still in progress.
func (c *Catalog) SetMutationHook(fn func(tx.XID)) {
	if fn == nil {
		c.onMutation.Store(nil)
		return
	}
	c.onMutation.Store(&fn)
}

func (c *Catalog) noteMutation(xid tx.XID, table string) {
	if !planRelevant[table] {
		return
	}
	if fn := c.onMutation.Load(); fn != nil {
		(*fn)(xid)
	}
}

// System table names.
const (
	SysClass     = "hawq_class"
	SysAttribute = "hawq_attribute"
	SysAoseg     = "hawq_aoseg"
	SysStatRel   = "hawq_stat_rel"
	SysSegment   = "hawq_segment"
	SysResQueue  = "hawq_resqueue"
	SysTask      = "hawq_task"
)

// New creates a catalog with empty system tables. Mutations are logged to
// wal (pass a fresh WAL for a primary, or nil for a standby replica that
// is populated purely by ApplyRecord).
func New(wal *tx.WAL) *Catalog {
	c := &Catalog{sys: map[string]*SysTable{}, nextOID: 16384}
	if wal != nil {
		c.wal.Store(wal)
	}
	add := func(name string, cols ...types.Column) {
		c.sys[name] = NewSysTable(name, types.NewSchema(cols...))
	}
	add(SysClass,
		types.Column{Name: "oid", Kind: types.KindInt64},
		types.Column{Name: "relname", Kind: types.KindString},
		types.Column{Name: "distrandom", Kind: types.KindBool},
		types.Column{Name: "distcols", Kind: types.KindString},
		types.Column{Name: "orientation", Kind: types.KindString},
		types.Column{Name: "codec", Kind: types.KindString},
		types.Column{Name: "partkind", Kind: types.KindInt32},
		types.Column{Name: "partcol", Kind: types.KindInt32},
		types.Column{Name: "parentoid", Kind: types.KindInt64},
		types.Column{Name: "rangelo", Kind: types.KindBytes},
		types.Column{Name: "rangehi", Kind: types.KindBytes},
		types.Column{Name: "listvals", Kind: types.KindBytes},
		types.Column{Name: "location", Kind: types.KindString},
		types.Column{Name: "format", Kind: types.KindString},
	)
	add(SysAttribute,
		types.Column{Name: "tableoid", Kind: types.KindInt64},
		types.Column{Name: "attnum", Kind: types.KindInt32},
		types.Column{Name: "attname", Kind: types.KindString},
		types.Column{Name: "kind", Kind: types.KindInt32},
		types.Column{Name: "scale", Kind: types.KindInt32},
		types.Column{Name: "notnull", Kind: types.KindBool},
	)
	add(SysAoseg,
		types.Column{Name: "tableoid", Kind: types.KindInt64},
		types.Column{Name: "segmentid", Kind: types.KindInt32},
		types.Column{Name: "segno", Kind: types.KindInt32},
		types.Column{Name: "path", Kind: types.KindString},
		types.Column{Name: "logicallen", Kind: types.KindInt64},
		types.Column{Name: "tuples", Kind: types.KindInt64},
		types.Column{Name: "collens", Kind: types.KindString},
		types.Column{Name: "colstats", Kind: types.KindBytes},
	)
	add(SysStatRel,
		types.Column{Name: "tableoid", Kind: types.KindInt64},
		types.Column{Name: "rows", Kind: types.KindInt64},
	)
	add(SysSegment,
		types.Column{Name: "segmentid", Kind: types.KindInt32},
		types.Column{Name: "host", Kind: types.KindString},
		types.Column{Name: "port", Kind: types.KindInt32},
		types.Column{Name: "status", Kind: types.KindString},
	)
	add(SysResQueue,
		types.Column{Name: "rsqname", Kind: types.KindString},
		types.Column{Name: "activelimit", Kind: types.KindInt64},
		types.Column{Name: "memlimit", Kind: types.KindInt64},
	)
	add(SysTask,
		types.Column{Name: "taskname", Kind: types.KindString},
		types.Column{Name: "kind", Kind: types.KindString},
		types.Column{Name: "target", Kind: types.KindString},
		types.Column{Name: "intervalns", Kind: types.KindInt64},
		types.Column{Name: "state", Kind: types.KindString},
		types.Column{Name: "owner", Kind: types.KindString},
		types.Column{Name: "leaseexpiry", Kind: types.KindInt64},
		types.Column{Name: "lastrun", Kind: types.KindInt64},
		types.Column{Name: "nextrun", Kind: types.KindInt64},
		types.Column{Name: "retries", Kind: types.KindInt64},
		types.Column{Name: "lasterror", Kind: types.KindString},
	)
	return c
}

// VacuumAll reclaims dead row versions in every system table, given the
// transaction manager's horizon snapshot (the explicit VACUUM). Writes
// reclaim a table's versions on their own as it grows (see reclaim). It
// returns the number of versions removed.
func (c *Catalog) VacuumAll(horizon tx.Snapshot) int {
	total := 0
	for _, t := range c.sys {
		total += t.Vacuum(horizon)
	}
	return total
}

// SysTable returns a system table by name (CaQL and tests).
func (c *Catalog) SysTable(name string) (*SysTable, error) {
	t, ok := c.sys[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no system table %q", name)
	}
	return t, nil
}

// SetWAL swaps the log mutations are recorded to. Promotion installs a
// fresh WAL epoch; recovery installs the durable log once replay is done
// (replay itself must not re-log).
func (c *Catalog) SetWAL(w *tx.WAL) { c.wal.Store(w) }

// WAL returns the current log (nil for a pure replica).
func (c *Catalog) WAL() *tx.WAL { return c.wal.Load() }

// insert writes a row to a system table and WAL-logs it.
func (c *Catalog) insert(t *tx.Tx, table string, row types.Row) {
	id := c.sys[table].Insert(t.XID(), row)
	if w := c.wal.Load(); w != nil {
		w.Append(tx.Record{Type: tx.RecInsert, XID: t.XID(), Table: table, RowID: id, Data: types.EncodeRow(nil, row)})
	}
	c.noteMutation(t.XID(), table)
	c.reclaim(t, table)
}

// reclaim vacuums table under t's horizon once its stored versions have
// doubled since the last vacuum, so a write never walks an unbounded
// history. Only the primary reclaims: replay inserts through
// SysTable.InsertWithID, and the vacuum itself is not logged, since the
// versions it removes are visible to no snapshot.
func (c *Catalog) reclaim(t *tx.Tx, table string) {
	if st := c.sys[table]; st.needsVacuum() {
		st.Vacuum(t.Horizon())
	}
}

// deleteWhere retires, under the stamp rule, every version of table
// that match accepts and snap sees, WAL-logs each, and returns their
// rows. ErrConcurrentUpdate means another transaction retired one first;
// t must then abort.
func (c *Catalog) deleteWhere(t *tx.Tx, snap tx.Snapshot, table string, match func(types.Row) bool) ([]types.Row, error) {
	retired, err := c.sys[table].retire(snap, t.XID(), match)
	c.reclaim(t, table)
	if err != nil || len(retired) == 0 {
		return nil, err
	}
	rows := make([]types.Row, len(retired))
	for i, r := range retired {
		if w := c.wal.Load(); w != nil {
			w.Append(tx.Record{Type: tx.RecDelete, XID: t.XID(), Table: table, RowID: r.id})
		}
		rows[i] = r.data
	}
	c.noteMutation(t.XID(), table)
	return rows, nil
}

// replace is the catalog's MVCC update: it retires what deleteWhere
// retires and inserts in the place of each version a copy that edit has
// changed, so concurrent snapshots keep seeing the old versions until t
// commits. It returns how many versions it replaced.
func (c *Catalog) replace(t *tx.Tx, snap tx.Snapshot, table string, match func(types.Row) bool, edit func(types.Row) error) (int, error) {
	old, err := c.deleteWhere(t, snap, table, match)
	if err != nil {
		return 0, err
	}
	for _, row := range old {
		row = row.Clone()
		if err := edit(row); err != nil {
			return 0, err
		}
		c.insert(t, table, row)
	}
	return len(old), nil
}

// selectAll decodes every row of st that match accepts and snap sees.
func selectAll[T any](st *SysTable, snap tx.Snapshot, match func(types.Row) bool, decode func(types.Row) T) []T {
	var out []T
	st.Select(snap, match, func(_ uint64, row types.Row) bool {
		out = append(out, decode(row))
		return true
	})
	return out
}

// selectOne decodes the first row of st that match accepts and snap
// sees; ok is false when there is none.
func selectOne[T any](st *SysTable, snap tx.Snapshot, match func(types.Row) bool, decode func(types.Row) T) (out T, ok bool) {
	st.Select(snap, match, func(_ uint64, row types.Row) bool {
		out, ok = decode(row), true
		return false
	})
	return out, ok
}

// oidIs matches the rows of one table in the system tables keyed on a
// table OID in column 0.
func oidIs(oid int64) func(types.Row) bool {
	return func(row types.Row) bool { return row[0].Int() == oid }
}

// nameIs matches the row of one task or resource queue (keyed on a
// lower-case name in column 0).
func nameIs(name string) func(types.Row) bool {
	return func(row types.Row) bool { return row[0].Str() == name }
}

// ApplyRecord replays a WAL record into this catalog replica: the standby
// master's log-shipping apply loop (§2.6).
func (c *Catalog) ApplyRecord(r tx.Record) error {
	switch r.Type {
	case tx.RecInsert:
		t, ok := c.sys[r.Table]
		if !ok {
			return fmt.Errorf("catalog: replay into unknown table %q", r.Table)
		}
		row, _, err := types.DecodeRow(r.Data)
		if err != nil {
			return fmt.Errorf("catalog: replay decode: %w", err)
		}
		t.InsertWithID(r.XID, r.RowID, row)
		if r.Table == SysClass {
			c.mu.Lock()
			if oid := row[0].Int(); oid >= c.nextOID {
				c.nextOID = oid + 1
			}
			c.mu.Unlock()
		}
	case tx.RecDelete:
		t, ok := c.sys[r.Table]
		if !ok {
			return fmt.Errorf("catalog: replay delete on unknown table %q", r.Table)
		}
		return t.redoStamp(r.XID, r.RowID)
	}
	return nil
}

// allocOID hands out a new object ID.
func (c *Catalog) allocOID() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	oid := c.nextOID
	c.nextOID++
	return oid
}

// CreateTable registers a table. For partitioned parents, callers create
// the children separately via CreateTable with ParentOID set (the planner
// DDL path builds them from the PARTITION BY clause). Returns the
// assigned OID.
func (c *Catalog) CreateTable(t *tx.Tx, desc *TableDesc) (int64, error) {
	snap := t.Snapshot()
	if existing, err := c.LookupTable(snap, desc.Name); err == nil && existing != nil {
		return 0, fmt.Errorf("catalog: table %q already exists", desc.Name)
	}
	if desc.Storage.Orientation == "" {
		desc.Storage.Orientation = OrientRow
	}
	if desc.Storage.Codec == "" {
		desc.Storage.Codec = "none"
	}
	oid := desc.OID
	if oid == 0 {
		oid = c.allocOID()
	}
	desc.OID = oid
	distCols := make([]string, len(desc.Dist.Cols))
	for i, col := range desc.Dist.Cols {
		distCols[i] = strconv.Itoa(col)
	}
	var listVals []byte
	if len(desc.ListValues) > 0 {
		listVals = types.EncodeRow(nil, desc.ListValues)
	}
	var rangeLo, rangeHi []byte
	if !desc.RangeLo.IsNull() {
		rangeLo = types.EncodeDatum(nil, desc.RangeLo)
	}
	if !desc.RangeHi.IsNull() {
		rangeHi = types.EncodeDatum(nil, desc.RangeHi)
	}
	c.insert(t, SysClass, types.Row{
		types.NewInt64(oid),
		types.NewString(desc.Name),
		types.NewBool(desc.Dist.Random),
		types.NewString(strings.Join(distCols, ",")),
		types.NewString(desc.Storage.Orientation),
		types.NewString(desc.Storage.Codec),
		types.NewInt32(int32(desc.PartKind)),
		types.NewInt32(int32(desc.PartCol)),
		types.NewInt64(desc.ParentOID),
		types.NewBytes(rangeLo),
		types.NewBytes(rangeHi),
		types.NewBytes(listVals),
		types.NewString(desc.Location),
		types.NewString(desc.Format),
	})
	for i, col := range desc.Schema.Columns {
		c.insert(t, SysAttribute, types.Row{
			types.NewInt64(oid),
			types.NewInt32(int32(i)),
			types.NewString(col.Name),
			types.NewInt32(int32(col.Kind)),
			types.NewInt32(int32(col.Scale)),
			types.NewBool(col.NotNull),
		})
	}
	return oid, nil
}

// DropTable removes a table (and its partitions when it is a parent).
func (c *Catalog) DropTable(t *tx.Tx, name string) error {
	snap := t.Snapshot()
	desc, err := c.LookupTable(snap, name)
	if err != nil {
		return err
	}
	victims := []*TableDesc{desc}
	if desc.IsPartitionParent() {
		kids, err := c.PartitionChildren(snap, desc.OID)
		if err != nil {
			return err
		}
		victims = append(victims, kids...)
	}
	for _, v := range victims {
		c.merged.Delete(v.OID) // ColStatsOf merges again for a reader that still sees it
		// Every table here keys on the table's oid in column 0.
		for _, table := range []string{SysClass, SysAttribute, SysAoseg, SysStatRel} {
			if _, err := c.deleteWhere(t, snap, table, oidIs(v.OID)); err != nil {
				return err
			}
		}
	}
	return nil
}

// decodeClassRow turns a hawq_class row into a TableDesc (schema filled
// in by the caller).
func decodeClassRow(row types.Row) *TableDesc {
	desc := &TableDesc{
		OID:  row[0].Int(),
		Name: row[1].Str(),
		Dist: DistPolicy{Random: row[2].Bool()},
		Storage: StorageSpec{
			Orientation: row[4].Str(),
			Codec:       row[5].Str(),
		},
		PartKind:  PartitionKind(row[6].Int()),
		PartCol:   int(row[7].Int()),
		ParentOID: row[8].Int(),
		Location:  row[12].Str(),
		Format:    row[13].Str(),
	}
	if s := row[3].Str(); s != "" {
		for _, part := range strings.Split(s, ",") {
			n, _ := strconv.Atoi(part)
			desc.Dist.Cols = append(desc.Dist.Cols, n)
		}
	}
	if b := row[9].Str(); b != "" {
		if d, _, err := types.DecodeDatum([]byte(b)); err == nil {
			desc.RangeLo = d
		}
	}
	if b := row[10].Str(); b != "" {
		if d, _, err := types.DecodeDatum([]byte(b)); err == nil {
			desc.RangeHi = d
		}
	}
	if b := row[11].Str(); b != "" {
		if vals, _, err := types.DecodeRow([]byte(b)); err == nil {
			desc.ListValues = vals
		}
	}
	return desc
}

// loadSchema reads hawq_attribute rows for a table.
func (c *Catalog) loadSchema(snap tx.Snapshot, oid int64) *types.Schema {
	type att struct {
		num int
		col types.Column
	}
	atts := selectAll(c.sys[SysAttribute], snap, oidIs(oid), func(row types.Row) att {
		return att{
			num: int(row[1].Int()),
			col: types.Column{
				Name:    row[2].Str(),
				Kind:    types.Kind(row[3].Int()),
				Scale:   int8(row[4].Int()),
				NotNull: row[5].Bool(),
			},
		}
	})
	sort.Slice(atts, func(i, j int) bool { return atts[i].num < atts[j].num })
	cols := make([]types.Column, len(atts))
	for i, a := range atts {
		cols[i] = a.col
	}
	return &types.Schema{Columns: cols}
}

// tables decodes the hawq_class rows match accepts, each with its
// schema.
func (c *Catalog) tables(snap tx.Snapshot, match func(types.Row) bool) []*TableDesc {
	out := selectAll(c.sys[SysClass], snap, match, decodeClassRow)
	for _, d := range out {
		d.Schema = c.loadSchema(snap, d.OID)
	}
	return out
}

// LookupTable resolves a table by name under a snapshot. Returns
// (nil, error) when absent.
func (c *Catalog) LookupTable(snap tx.Snapshot, name string) (*TableDesc, error) {
	desc, ok := selectOne(c.sys[SysClass], snap, func(row types.Row) bool { return strings.EqualFold(row[1].Str(), name) }, decodeClassRow)
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	desc.Schema = c.loadSchema(snap, desc.OID)
	return desc, nil
}

// ListTables returns all visible tables sorted by name.
func (c *Catalog) ListTables(snap tx.Snapshot) []*TableDesc {
	out := c.tables(snap, nil)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PartitionChildren returns the child partitions of a parent, ordered by
// OID (creation order).
func (c *Catalog) PartitionChildren(snap tx.Snapshot, parentOID int64) ([]*TableDesc, error) {
	out := c.tables(snap, func(row types.Row) bool { return row[8].Int() == parentOID })
	sort.Slice(out, func(i, j int) bool { return out[i].OID < out[j].OID })
	return out, nil
}
