package main

import (
	"errors"
	"fmt"

	"hawq/internal/engine"
)

// emptyTable is a two-column hash-distributed table with no rows. The
// traced run dispatches a 4-segment gather and a 1-QE key lookup against
// it to time pure gang launch, stream set-up and teardown.
const emptyTable = "bench_empty"

// bootEngine boots a cluster and creates the empty probe table.
func bootEngine(cfg engine.Config) (*engine.Engine, error) {
	e, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	ddl := "CREATE TABLE " + emptyTable + " (k BIGINT, v BIGINT) DISTRIBUTED BY (k)"
	if _, err := e.NewSession().Query(ddl); err != nil {
		return nil, errors.Join(err, e.Close())
	}
	return e, nil
}

// countRows returns count(*) of a table.
func countRows(s *engine.Session, table string) (int64, error) {
	res, err := s.Query("SELECT count(*) FROM " + table)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("count(*) of %s returned %d rows", table, len(res.Rows))
	}
	return res.Rows[0][0].Int(), nil
}

// storedBytesPerRow divides the file system's stored user bytes by the
// rows of the given tables: the space cost of the workload's format.
func storedBytesPerRow(e *engine.Engine, tables []string) (float64, error) {
	s := e.NewSession()
	var rows int64
	for _, t := range tables {
		n, err := countRows(s, t)
		if err != nil {
			return 0, err
		}
		rows += n
	}
	if rows == 0 {
		return 0, fmt.Errorf("no rows stored in %v", tables)
	}
	return float64(e.Cluster().FS.TotalBytes()) / float64(rows), nil
}
