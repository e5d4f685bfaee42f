package engine

import (
	"fmt"
	"strings"

	"hawq/internal/catalog"
	"hawq/internal/planner"
	"hawq/internal/sqlparser"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// resolveSchema maps column definitions to a schema.
func resolveSchema(defs []sqlparser.ColumnDef) (*types.Schema, error) {
	cols := make([]types.Column, len(defs))
	for i, d := range defs {
		col, err := planner.ResolveType(d.TypeName)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", d.Name, err)
		}
		col.Name = strings.ToLower(d.Name)
		col.NotNull = d.NotNull
		cols[i] = col
	}
	return &types.Schema{Columns: cols}, nil
}

// resolveStorage maps WITH options to a storage spec (§2.5).
func resolveStorage(o sqlparser.StorageOptions) (catalog.StorageSpec, error) {
	spec := catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"}
	switch strings.ToLower(o.Orientation) {
	case "", "row":
	case "column":
		spec.Orientation = catalog.OrientColumn
	case "parquet":
		spec.Orientation = catalog.OrientParquet
	default:
		return spec, fmt.Errorf("engine: unknown orientation %q", o.Orientation)
	}
	level := o.CompressLevel
	switch strings.ToLower(o.CompressType) {
	case "", "none":
		spec.Codec = "none"
	case "quicklz":
		spec.Codec = "quicklz"
	case "snappy":
		spec.Codec = "snappy"
	case "rle", "rle_type":
		spec.Codec = "rle"
	case "zlib":
		if level == 0 {
			level = 1
		}
		spec.Codec = fmt.Sprintf("zlib-%d", level)
	case "gzip":
		if level == 0 {
			level = 1
		}
		spec.Codec = fmt.Sprintf("gzip-%d", level)
	default:
		return spec, fmt.Errorf("engine: unknown compresstype %q", o.CompressType)
	}
	return spec, nil
}

func (s *Session) runCreateTable(t *tx.Tx, stmt *sqlparser.CreateTableStmt) (*Result, error) {
	cat := s.eng.cl.Cat()
	if stmt.IfNotExists {
		if _, err := cat.LookupTable(t.Snapshot(), stmt.Name); err == nil {
			return &Result{Tag: "CREATE TABLE"}, nil
		}
	}
	schema, err := resolveSchema(stmt.Columns)
	if err != nil {
		return nil, err
	}
	spec, err := resolveStorage(stmt.Storage)
	if err != nil {
		return nil, err
	}
	desc := &catalog.TableDesc{
		Name:    strings.ToLower(stmt.Name),
		Schema:  schema,
		Storage: spec,
	}
	if stmt.Randomly {
		desc.Dist.Random = true
	} else {
		for _, colName := range stmt.DistributedBy {
			idx := schema.IndexOf(colName)
			if idx < 0 {
				return nil, fmt.Errorf("engine: distribution column %q does not exist", colName)
			}
			desc.Dist.Cols = append(desc.Dist.Cols, idx)
		}
		if len(desc.Dist.Cols) == 0 {
			desc.Dist.Cols = []int{0} // default: first column
		}
	}
	var children []*catalog.TableDesc
	if stmt.Partition != nil {
		partCol := schema.IndexOf(stmt.Partition.Column)
		if partCol < 0 {
			return nil, fmt.Errorf("engine: partition column %q does not exist", stmt.Partition.Column)
		}
		desc.PartCol = partCol
		if stmt.Partition.IsRange {
			desc.PartKind = catalog.PartRange
		} else {
			desc.PartKind = catalog.PartList
		}
		children, err = buildPartitionChildren(desc, stmt.Partition, schema, partCol)
		if err != nil {
			return nil, err
		}
	}
	oid, err := cat.CreateTable(t, desc)
	if err != nil {
		return nil, err
	}
	for _, kid := range children {
		kid.ParentOID = oid
		if _, err := cat.CreateTable(t, kid); err != nil {
			return nil, err
		}
	}
	return &Result{Tag: "CREATE TABLE"}, nil
}

// buildPartitionChildren expands a PARTITION BY clause into child table
// descriptors (§2.3: "creating a top-level parent table with one or more
// levels of child tables").
func buildPartitionChildren(parent *catalog.TableDesc, spec *sqlparser.PartitionSpec, schema *types.Schema, partCol int) ([]*catalog.TableDesc, error) {
	child := func(n int) *catalog.TableDesc {
		return &catalog.TableDesc{
			Name:     fmt.Sprintf("%s_1_prt_%d", parent.Name, n),
			Schema:   schema,
			Dist:     parent.Dist,
			Storage:  parent.Storage,
			PartKind: parent.PartKind,
			PartCol:  partCol,
		}
	}
	if !spec.IsRange {
		var out []*catalog.TableDesc
		for i, lp := range spec.ListParts {
			kid := child(i + 1)
			kid.Name = fmt.Sprintf("%s_1_prt_%s", parent.Name, strings.ToLower(lp.Name))
			for _, ve := range lp.Values {
				d, err := constValue(ve, schema.Columns[partCol].Kind)
				if err != nil {
					return nil, err
				}
				kid.ListValues = append(kid.ListValues, d)
			}
			out = append(out, kid)
		}
		return out, nil
	}
	// Range partitioning: iterate START..END by EVERY.
	kind := schema.Columns[partCol].Kind
	start, err := constValue(spec.Start, kind)
	if err != nil {
		return nil, err
	}
	end, err := constValue(spec.End, kind)
	if err != nil {
		return nil, err
	}
	step := func(d types.Datum) types.Datum {
		switch spec.EveryUnit {
		case "month":
			return types.DateFromTime(d.Time().AddDate(0, int(spec.EveryN), 0))
		case "year":
			return types.DateFromTime(d.Time().AddDate(int(spec.EveryN), 0, 0))
		case "day":
			return types.NewDate(int32(d.I + spec.EveryN))
		default:
			out := d
			out.I += spec.EveryN
			return out
		}
	}
	var out []*catalog.TableDesc
	lo := start
	for n := 1; types.Compare(lo, end) < 0; n++ {
		hi := step(lo)
		if types.Compare(hi, end) > 0 {
			hi = end
		}
		kid := child(n)
		kid.RangeLo, kid.RangeHi = lo, hi
		out = append(out, kid)
		lo = hi
		if n > 10000 {
			return nil, fmt.Errorf("engine: partition spec yields too many partitions")
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("engine: empty partition range")
	}
	return out, nil
}

// constValue evaluates a constant syntax expression to a datum of the
// wanted kind.
func constValue(e sqlparser.Expr, kind types.Kind) (types.Datum, error) {
	switch v := e.(type) {
	case *sqlparser.DateLit:
		return types.ParseDate(v.S)
	case *sqlparser.StrLit:
		return types.Cast(types.NewString(v.S), kind)
	case *sqlparser.NumLit:
		return types.Cast(types.NewString(v.S), kind)
	case *sqlparser.UnExpr:
		d, err := constValue(v.E, kind)
		if err != nil {
			return types.Null, err
		}
		return types.Neg(d), nil
	}
	return types.Null, fmt.Errorf("engine: partition bound must be a literal, got %T", e)
}

func (s *Session) runCreateExternal(t *tx.Tx, stmt *sqlparser.CreateExternalTableStmt) (*Result, error) {
	schema, err := resolveSchema(stmt.Columns)
	if err != nil {
		return nil, err
	}
	desc := &catalog.TableDesc{
		Name:     strings.ToLower(stmt.Name),
		Schema:   schema,
		Dist:     catalog.DistPolicy{Random: true},
		Location: stmt.Location,
		Format:   stmt.Format,
	}
	if _, err := s.eng.cl.Cat().CreateTable(t, desc); err != nil {
		return nil, err
	}
	return &Result{Tag: "CREATE EXTERNAL TABLE"}, nil
}

func (s *Session) runDropTable(t *tx.Tx, stmt *sqlparser.DropTableStmt) (*Result, error) {
	cat := s.eng.cl.Cat()
	desc, err := cat.LookupTable(t.Snapshot(), stmt.Name)
	if err != nil {
		if stmt.IfExists {
			return &Result{Tag: "DROP TABLE"}, nil
		}
		return nil, err
	}
	if err := s.eng.cl.Locks.Acquire(t.XID(), strings.ToLower(stmt.Name), tx.AccessExclusive); err != nil {
		return nil, err
	}
	oids := []int64{desc.OID}
	if desc.IsPartitionParent() {
		kids, err := cat.PartitionChildren(t.Snapshot(), desc.OID)
		if err != nil {
			return nil, err
		}
		for _, k := range kids {
			oids = append(oids, k.OID)
		}
	}
	if err := cat.DropTable(t, stmt.Name); err != nil {
		return nil, err
	}
	fs := s.eng.cl.FS
	t.OnCommit(func() {
		for _, oid := range oids {
			// Post-commit cleanup is best effort: the catalog entry is
			// already gone, so a failed delete only leaks dead files.
			//hawqcheck:ignore errdrop
			fs.Delete(fmt.Sprintf("/hawq/data/%d", oid), true)
		}
	})
	return &Result{Tag: "DROP TABLE"}, nil
}

func (s *Session) runTruncate(t *tx.Tx, stmt *sqlparser.TruncateStmt) (*Result, error) {
	cat := s.eng.cl.Cat()
	desc, err := cat.LookupTable(t.Snapshot(), stmt.Name)
	if err != nil {
		return nil, err
	}
	if err := s.eng.cl.Locks.Acquire(t.XID(), strings.ToLower(stmt.Name), tx.AccessExclusive); err != nil {
		return nil, err
	}
	targets := []*catalog.TableDesc{desc}
	if desc.IsPartitionParent() {
		kids, err := cat.PartitionChildren(t.Snapshot(), desc.OID)
		if err != nil {
			return nil, err
		}
		targets = append(targets, kids...)
	}
	fs := s.eng.cl.FS
	for _, d := range targets {
		if err := cat.DropSegFiles(t, d.OID); err != nil {
			return nil, err
		}
		oid := d.OID
		t.OnCommit(func() {
			// Best-effort post-commit cleanup; see runDrop.
			//hawqcheck:ignore errdrop
			fs.Delete(fmt.Sprintf("/hawq/data/%d", oid), true)
		})
	}
	return &Result{Tag: "TRUNCATE TABLE"}, nil
}

// ExternalAnalyzer is implemented by PXF bindings that support the
// optional Analyzer plugin (§6.4).
type ExternalAnalyzer interface {
	AnalyzeExternal(desc *catalog.TableDesc) (rows int64, err error)
}

// runAnalyze asks a PXF connector's analyzer for an external table's
// row count (§6.4). An internal table needs no ANALYZE: its statistics
// are written with its data (DESIGN.md §19), so ANALYZE of one, or of
// every table, is accepted and does nothing.
func (s *Session) runAnalyze(t *tx.Tx, stmt *sqlparser.AnalyzeStmt) (*Result, error) {
	done := &Result{Tag: "ANALYZE"}
	if stmt.Table == "" {
		return done, nil
	}
	desc, err := s.eng.cl.Cat().LookupTable(t.Snapshot(), stmt.Table)
	if err != nil || !desc.IsExternal() {
		return done, err
	}
	an, ok := s.eng.cl.External.(ExternalAnalyzer)
	if !ok {
		return nil, fmt.Errorf("engine: ANALYZE on external table %s: connector has no analyzer", desc.Name)
	}
	rows, err := an.AnalyzeExternal(desc)
	if err != nil {
		return nil, err
	}
	return done, s.eng.cl.Cat().SetRelStats(t, desc.OID, catalog.RelStats{Rows: rows})
}
