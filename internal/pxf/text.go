package pxf

import (
	"bytes"
	"fmt"
	"strings"

	"hawq/internal/hdfs"
	"hawq/internal/types"
)

// TextConnector reads delimited text files (plain text / CSV) from HDFS
// (§6: "various common HDFS file types ... plain text (delimited, csv)").
// Fragments are whole files (splitting on block boundaries would need
// line-boundary negotiation; file granularity keeps fragments aligned
// with HDFS locality hints, which the connector reports per file).
type TextConnector struct {
	FS        *hdfs.FileSystem
	Delimiter string
	// NullToken renders SQL NULL; defaults to "\N".
	NullToken string
}

func (c *TextConnector) nullToken() string {
	if c.NullToken == "" {
		return `\N`
	}
	return c.NullToken
}

// listFiles expands a path (file or directory) to data files.
func listFiles(fs *hdfs.FileSystem, path string) ([]hdfs.FileStatus, error) {
	st, err := fs.Stat(path)
	if err != nil {
		return nil, err
	}
	if !st.IsDir {
		return []hdfs.FileStatus{st}, nil
	}
	entries, err := fs.List(path)
	if err != nil {
		return nil, err
	}
	var out []hdfs.FileStatus
	for _, e := range entries {
		if !e.IsDir {
			out = append(out, e)
		}
	}
	return out, nil
}

// fileFragments lists path's data files as one fragment each, with the
// file's first block's replica hosts as locality hints; who names the
// connector in the error.
func fileFragments(fs *hdfs.FileSystem, who, path string) ([]Fragment, error) {
	files, err := listFiles(fs, path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", who, err)
	}
	var out []Fragment
	for i, f := range files {
		frag := Fragment{Index: i, Source: f.Path, Length: f.Length}
		if locs, err := fs.BlockLocations(f.Path); err == nil && len(locs) > 0 {
			frag.Hosts = locs[0].Hosts
		}
		out = append(out, frag)
	}
	return out, nil
}

// Fragments implements Fragmenter: one fragment per file.
func (c *TextConnector) Fragments(req *Request) ([]Fragment, error) {
	return fileFragments(c.FS, "pxf text", req.Loc.Path)
}

// ReadFragment implements Accessor: one record per line.
func (c *TextConnector) ReadFragment(req *Request, f Fragment) (RecordReader, error) {
	data, err := c.FS.ReadFile(f.Source)
	return &lineReader{data: data}, err
}

// lineReader serves the lines of a file's bytes, skipping empty ones —
// with blank set, lines of white space too; the last needs no newline.
type lineReader struct {
	data  []byte
	blank bool
}

// Next implements RecordReader.
func (r *lineReader) Next() ([]byte, error) {
	for len(r.data) > 0 {
		line := r.data
		if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
			line, r.data = line[:nl], line[nl+1:]
		} else {
			r.data = nil
		}
		if len(line) > 0 && !(r.blank && len(bytes.TrimSpace(line)) == 0) {
			return line, nil
		}
	}
	return nil, nil
}

// Resolve implements Resolver: split on the delimiter, cast per column.
func (c *TextConnector) Resolve(req *Request, record []byte) (types.Row, error) {
	fields := strings.Split(string(record), c.Delimiter)
	schema := req.Schema
	if len(fields) < schema.Len() {
		return nil, fmt.Errorf("pxf text: record has %d fields, schema needs %d", len(fields), schema.Len())
	}
	row := make(types.Row, schema.Len())
	for i, col := range schema.Columns {
		raw := fields[i]
		if raw == c.nullToken() {
			row[i] = types.Null
			continue
		}
		d, err := types.CastScale(types.NewString(raw), col.Kind, col.Scale)
		if err != nil {
			return nil, fmt.Errorf("pxf text: column %s: %w", col.Name, err)
		}
		row[i] = d
	}
	return row, nil
}

// WriteTextFile renders rows as delimited text onto HDFS — the export
// direction (§6: "PXF can export internal HAWQ data into files on
// HDFS").
func WriteTextFile(fs *hdfs.FileSystem, path, delimiter string, rows []types.Row) error {
	var buf bytes.Buffer
	for _, r := range rows {
		for i, d := range r {
			if i > 0 {
				buf.WriteString(delimiter)
			}
			if d.IsNull() {
				buf.WriteString(`\N`)
			} else {
				buf.WriteString(d.String())
			}
		}
		buf.WriteByte('\n')
	}
	return fs.WriteFile(path, buf.Bytes(), hdfs.CreateOptions{})
}
