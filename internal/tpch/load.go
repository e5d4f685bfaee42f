package tpch

import (
	"fmt"

	"hawq/internal/engine"
	"hawq/internal/types"
)

// LoadOptions configures schema creation and loading.
type LoadOptions struct {
	Scale Scale
	// Orientation is "row", "column" or "parquet" (§2.5).
	Orientation string
	// CompressType/CompressLevel select the codec (§8.4).
	CompressType  string
	CompressLevel int
	// Distribution is DistHash (join-key aligned, the paper's default)
	// or DistRandom (§8.3).
	Distribution string
	// BatchRows is the COPY batch size (default 5000).
	BatchRows int
}

// Load creates the TPC-H schema and loads generated data into an engine.
// It returns the generator used (for cross-checking results).
func Load(e *engine.Engine, opts LoadOptions) (*Gen, error) {
	if opts.Distribution == "" {
		opts.Distribution = DistHash
	}
	if opts.BatchRows <= 0 {
		opts.BatchRows = 5000
	}
	s := e.NewSession()
	storage := StorageClause(opts.Orientation, opts.CompressType, opts.CompressLevel)
	for _, ddl := range DDL(storage, opts.Distribution) {
		if _, err := s.Query(ddl); err != nil {
			return nil, fmt.Errorf("tpch: %w", err)
		}
	}
	g := NewGen(opts.Scale)
	copyAll := func(table string, rows []types.Row) error {
		for start := 0; start < len(rows); start += opts.BatchRows {
			end := start + opts.BatchRows
			if end > len(rows) {
				end = len(rows)
			}
			if _, err := s.CopyFrom(table, rows[start:end]); err != nil {
				return fmt.Errorf("tpch: load %s: %w", table, err)
			}
		}
		return nil
	}
	if err := copyAll("region", g.Region()); err != nil {
		return nil, err
	}
	if err := copyAll("nation", g.Nation()); err != nil {
		return nil, err
	}
	if err := copyAll("supplier", g.Supplier()); err != nil {
		return nil, err
	}
	if err := copyAll("part", g.Part()); err != nil {
		return nil, err
	}
	if err := copyAll("partsupp", g.PartSupp()); err != nil {
		return nil, err
	}
	if err := copyAll("customer", g.Customer()); err != nil {
		return nil, err
	}
	var orderBuf, lineBuf []types.Row
	flush := func() error {
		if len(orderBuf) > 0 {
			if _, err := s.CopyFrom("orders", orderBuf); err != nil {
				return err
			}
			orderBuf = orderBuf[:0]
		}
		if len(lineBuf) > 0 {
			if _, err := s.CopyFrom("lineitem", lineBuf); err != nil {
				return err
			}
			lineBuf = lineBuf[:0]
		}
		return nil
	}
	var loadErr error
	g.OrderAndLines(func(order types.Row, lines []types.Row) {
		if loadErr != nil {
			return
		}
		orderBuf = append(orderBuf, order)
		lineBuf = append(lineBuf, lines...)
		if len(lineBuf) >= opts.BatchRows {
			loadErr = flush()
		}
	})
	if loadErr != nil {
		return nil, loadErr
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return g, nil
}
