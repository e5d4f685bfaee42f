package pxf

import (
	"strings"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/hdfs"
	"hawq/internal/plan"
	"hawq/internal/types"
)

// records pulls a reader to its end.
func records(t *testing.T, r RecordReader) []string {
	t.Helper()
	var out []string
	for {
		rec, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			// The end is reported again, not an error the second time.
			if rec, err := r.Next(); rec != nil || err != nil {
				t.Fatalf("Next past the end = (%q, %v)", rec, err)
			}
			return out
		}
		out = append(out, string(rec))
	}
}

func testHDFS(t *testing.T) *hdfs.FileSystem {
	t.Helper()
	fs, err := hdfs.New(hdfs.Config{DataNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestLineReaders: an empty file has no record, empty lines are none,
// and the last line needs no newline; the JSON connector skips lines of
// white space too, which the text connector hands on as records.
func TestLineReaders(t *testing.T) {
	fs := testHDFS(t)
	text, json := &TextConnector{FS: fs, Delimiter: "|"}, &JSONConnector{FS: fs}
	for _, tc := range []struct {
		data       string
		text, json []string
	}{
		{"", nil, nil},
		{"\n\n", nil, nil},
		{"a|1\nb|2", []string{"a|1", "b|2"}, []string{"a|1", "b|2"}},
		{"a|1\n\n  \nb|2\n", []string{"a|1", "  ", "b|2"}, []string{"a|1", "b|2"}},
	} {
		if err := fs.WriteFile("/ext/lines", []byte(tc.data), hdfs.CreateOptions{}); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			acc  Accessor
			want []string
		}{{text, tc.text}, {json, tc.json}} {
			r, err := c.acc.ReadFragment(&Request{}, Fragment{Source: "/ext/lines"})
			if err != nil {
				t.Fatal(err)
			}
			if got := records(t, r); strings.Join(got, "\x00") != strings.Join(c.want, "\x00") {
				t.Errorf("%T over %q: records %q, want %q", c.acc, tc.data, got, c.want)
			}
		}
	}
}

// TestSeqReaderTruncation: a sequence file cut inside its last record
// serves the records before it and then fails; one cut to its magic is
// empty, and a file without the magic is refused at open.
func TestSeqReaderTruncation(t *testing.T) {
	fs := testHDFS(t)
	rows := []types.Row{{types.NewInt64(1), types.NewString("one")}, {types.NewInt64(2), types.NewString("two")}}
	if err := WriteSeqFile(fs, "/ext/seq", rows); err != nil {
		t.Fatal(err)
	}
	whole, err := fs.ReadFile("/ext/seq")
	if err != nil {
		t.Fatal(err)
	}
	c := &SeqConnector{FS: fs}
	open := func(data []byte) (RecordReader, error) {
		if err := fs.WriteFile("/ext/cut", data, hdfs.CreateOptions{}); err != nil {
			t.Fatal(err)
		}
		return c.ReadFragment(&Request{}, Fragment{Source: "/ext/cut"})
	}
	r, err := open(whole[:len(whole)-2])
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := r.Next(); err != nil || rec == nil {
		t.Fatalf("first record of a file cut in its second: (%v, %v)", rec, err)
	}
	if rec, err := r.Next(); err == nil || !strings.Contains(err.Error(), "truncated record") {
		t.Fatalf("second, cut record = (%v, %v), want a truncation error", rec, err)
	}
	if r, err = open(whole[:4]); err != nil || len(records(t, r)) != 0 {
		t.Fatalf("a file of the magic alone: %v", err)
	}
	if _, err := open(whole[:3]); err == nil {
		t.Fatal("a file shorter than the magic opened")
	}
}

// TestHBaseReaderHoldsNoLock: a reader serves the rows its fragment had
// when it was opened and holds no lock of the table between two calls —
// a Put after the first Next returns, and is not seen.
func TestHBaseReaderHoldsNoLock(t *testing.T) {
	store := NewHBase()
	tab := store.CreateTable("t", 1)
	for _, k := range []string{"a", "b", "c"} {
		tab.Put(k, "cf:v", "1")
	}
	c := &HBaseConnector{Store: store}
	schema := types.NewSchema(types.Column{Name: "recordkey", Kind: types.KindString}, types.Column{Name: "cf:v", Kind: types.KindInt64})
	req := &Request{Loc: &Location{Path: "/t"}, Schema: schema}
	r, err := c.ReadFragment(req, Fragment{Index: 0, Source: "t"})
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Next()
	if err != nil || first == nil {
		t.Fatalf("first record: (%v, %v)", first, err)
	}
	tab.Put("b", "cf:v", "2") // would wait for ever on a reader's read lock
	tab.Put("d", "cf:v", "2")
	rest := records(t, r)
	if len(rest) != 2 {
		t.Fatalf("%d records after the first, want the 2 of the snapshot", len(rest))
	}
	row, err := c.Resolve(req, []byte(rest[0]))
	if err != nil || row[0].Str() != "b" || row[1].Int() != 1 {
		t.Fatalf("second row = %v (%v), want b as it was at open", row, err)
	}
}

// TestOpenExternalNamesTheFragment: an error inside a fragment comes out
// of next with the fragment's name, and ends the stream.
func TestOpenExternalNamesTheFragment(t *testing.T) {
	fs := testHDFS(t)
	if err := fs.WriteFile("/ext/bad/part-0", []byte("1|x\nnot-a-number|y\n3|z\n"), hdfs.CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	scan := &plan.ExternalScan{NumSegments: 1, Proj: []int{1, 0}, Table: &catalog.TableDesc{
		Name: "bad", Location: "pxf://svc/ext/bad?profile=text",
		Schema: types.NewSchema(types.Column{Name: "id", Kind: types.KindInt64}, types.Column{Name: "s", Kind: types.KindString}),
	}}
	next, err := NewEngine(fs).OpenExternal(scan, 0)
	if err != nil {
		t.Fatal(err)
	}
	if row, err := next(); err != nil || row[0].Str() != "x" || row[1].Int() != 1 {
		t.Fatalf("first row = %v (%v), want (x, 1)", row, err)
	}
	if row, err := next(); err == nil || !strings.Contains(err.Error(), "fragment /ext/bad/part-0[0]") {
		t.Fatalf("bad row = (%v, %v), want an error naming the fragment", row, err)
	}
	if row, err := next(); row != nil || err != nil {
		t.Fatalf("after the error = (%v, %v), want the end of the stream", row, err)
	}
}
