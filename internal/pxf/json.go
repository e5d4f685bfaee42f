package pxf

import (
	"encoding/json"
	"fmt"
	"math"

	"hawq/internal/hdfs"
	"hawq/internal/types"
)

// JSONConnector reads newline-delimited JSON objects from HDFS files,
// mapping object keys to schema columns by name (§6: JSON is among the
// built-in profiles).
type JSONConnector struct {
	FS *hdfs.FileSystem
}

// Fragments implements Fragmenter (file granularity, like text).
func (c *JSONConnector) Fragments(req *Request) ([]Fragment, error) {
	return fileFragments(c.FS, "pxf json", req.Loc.Path)
}

// ReadFragment implements Accessor: one record per line.
func (c *JSONConnector) ReadFragment(req *Request, f Fragment) (RecordReader, error) {
	data, err := c.FS.ReadFile(f.Source)
	return &lineReader{data: data, blank: true}, err
}

// Resolve implements Resolver: decode the object and map fields by
// column name; absent keys become NULL.
func (c *JSONConnector) Resolve(req *Request, record []byte) (types.Row, error) {
	var obj map[string]any
	if err := json.Unmarshal(record, &obj); err != nil {
		return nil, fmt.Errorf("pxf json: %w", err)
	}
	row := make(types.Row, req.Schema.Len())
	for i, col := range req.Schema.Columns {
		v, ok := obj[col.Name]
		if !ok || v == nil {
			row[i] = types.Null
			continue
		}
		d, err := jsonToDatum(v, col)
		if err != nil {
			return nil, fmt.Errorf("pxf json: column %s: %w", col.Name, err)
		}
		row[i] = d
	}
	return row, nil
}

func jsonToDatum(v any, col types.Column) (types.Datum, error) {
	kind := col.Kind
	switch x := v.(type) {
	case float64:
		switch kind {
		case types.KindInt32, types.KindInt64, types.KindDate:
			if x != math.Trunc(x) {
				return types.Null, fmt.Errorf("non-integer %v for %s", x, kind)
			}
			return types.Cast(types.NewInt64(int64(x)), kind)
		default:
			return types.CastScale(types.NewFloat64(x), kind, col.Scale)
		}
	case string:
		return types.CastScale(types.NewString(x), kind, col.Scale)
	case bool:
		return types.Cast(types.NewBool(x), kind)
	default:
		return types.Null, fmt.Errorf("unsupported JSON value %T", v)
	}
}
