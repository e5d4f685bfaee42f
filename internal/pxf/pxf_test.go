package pxf

import (
	"fmt"
	"strings"
	"testing"

	"hawq/internal/engine"
	"hawq/internal/hdfs"
	"hawq/internal/types"
)

func TestParseLocation(t *testing.T) {
	loc, err := ParseLocation("pxf://localhost:51200/sales?profile=HBase&k=v")
	if err != nil {
		t.Fatal(err)
	}
	if loc.Service != "localhost:51200" || loc.Path != "/sales" || loc.Profile != "HBase" || loc.Options["k"] != "v" {
		t.Fatalf("loc = %+v", loc)
	}
	for _, bad := range []string{"http://x/y?profile=a", "pxf://x/y", "://"} {
		if _, err := ParseLocation(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestAssignFragmentsLocality(t *testing.T) {
	frags := []Fragment{
		{Index: 0, Hosts: []string{"dn1"}},
		{Index: 1, Hosts: []string{"dn0"}},
		{Index: 2},                         // no hints: round-robin
		{Index: 3, Hosts: []string{"dn9"}}, // out of range: round-robin
	}
	got := assignFragments(frags, 2)
	if len(got[1]) == 0 || got[1][0].Index != 0 {
		t.Errorf("fragment 0 should go to segment 1: %+v", got)
	}
	if len(got[0]) == 0 || got[0][0].Index != 1 {
		t.Errorf("fragment 1 should go to segment 0: %+v", got)
	}
	total := len(got[0]) + len(got[1])
	if total != 4 {
		t.Errorf("assigned %d of 4", total)
	}
}

// pxfEngine boots an engine with a PXF binding attached.
func pxfEngine(t testing.TB, segments int) (*engine.Engine, *Engine) {
	t.Helper()
	e, err := engine.New(engine.Config{Segments: segments, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	px := NewEngine(e.Cluster().FS)
	e.Cluster().External = px
	return e, px
}

func TestTextExternalTableEndToEnd(t *testing.T) {
	e, _ := pxfEngine(t, 2)
	fs := e.Cluster().FS
	// Two files in a directory: two fragments.
	fs.WriteFile("/ext/sales/part-0", []byte("1|beer|4.50\n2|wine|9.00\n"), hdfs.CreateOptions{})
	fs.WriteFile("/ext/sales/part-1", []byte("3|milk|2.25\n\\N|unknown|0.00\n"), hdfs.CreateOptions{})

	s := e.NewSession()
	if _, err := s.Query(`CREATE EXTERNAL TABLE ext_sales (
		id INT8, item TEXT, price DECIMAL(10,2)
	) LOCATION ('pxf://svc/ext/sales?profile=text') FORMAT 'CUSTOM'`); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT count(*), sum(price) FROM ext_sales")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 4 || res.Rows[0][1].String() != "15.75" {
		t.Fatalf("ext agg = %v", res.Rows[0])
	}
	// NULL token respected.
	res, err = s.Query("SELECT item FROM ext_sales WHERE id IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "unknown" {
		t.Fatalf("null row = %v", res.Rows)
	}
}

func TestExternalJoinsInternal(t *testing.T) {
	e, _ := pxfEngine(t, 2)
	fs := e.Cluster().FS
	fs.WriteFile("/ext/orders.csv", []byte("1,100\n2,200\n3,150\n"), hdfs.CreateOptions{})
	s := e.NewSession()
	if _, err := s.Query(`CREATE EXTERNAL TABLE ext_orders (store_id INT8, amount INT8)
		LOCATION ('pxf://svc/ext/orders.csv?profile=csv') FORMAT 'CUSTOM'`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("CREATE TABLE stores (store_id INT8, name TEXT) DISTRIBUTED BY (store_id)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("INSERT INTO stores VALUES (1, 'north'), (2, 'south'), (3, 'east')"); err != nil {
		t.Fatal(err)
	}
	// The §6.1 shape: join an external table with an internal one.
	res, err := s.Query(`SELECT name, amount FROM stores s, ext_orders h
		WHERE s.store_id = h.store_id ORDER BY amount DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].Str() != "south" || res.Rows[0][1].Int() != 200 {
		t.Fatalf("join = %v", res.Rows)
	}
}

func TestJSONAndSequenceConnectors(t *testing.T) {
	e, _ := pxfEngine(t, 2)
	fs := e.Cluster().FS
	fs.WriteFile("/ext/events.json", []byte(
		`{"user": "ann", "clicks": 3}`+"\n"+
			`{"user": "bob", "clicks": 7, "extra": true}`+"\n"+
			`{"user": "cat"}`+"\n"), hdfs.CreateOptions{})
	s := e.NewSession()
	if _, err := s.Query(`CREATE EXTERNAL TABLE events (user TEXT, clicks INT8)
		LOCATION ('pxf://svc/ext/events.json?profile=json') FORMAT 'CUSTOM'`); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT sum(clicks), count(*) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 10 || res.Rows[0][1].Int() != 3 {
		t.Fatalf("json agg = %v", res.Rows[0])
	}
	// Sequence file round trip.
	rows := []types.Row{
		{types.NewInt64(1), types.NewString("x")},
		{types.NewInt64(2), types.Null},
	}
	if err := WriteSeqFile(fs, "/ext/data.seq", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(`CREATE EXTERNAL TABLE seqdata (k INT8, v TEXT)
		LOCATION ('pxf://svc/ext/data.seq?profile=sequence') FORMAT 'CUSTOM'`); err != nil {
		t.Fatal(err)
	}
	res, err = s.Query("SELECT k, v FROM seqdata ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].Str() != "x" || !res.Rows[1][1].IsNull() {
		t.Fatalf("seq rows = %v", res.Rows)
	}
}

// hbaseSales boots the paper's §6.1 example: a sales table keyed by
// timestamp-ish row keys 20130000..20130099 with details:storeid (i % 5)
// and details:price (i.50) cells, as the external table my_hbase_sales.
func hbaseSales(t *testing.T) (*engine.Session, *HBaseConnector) {
	t.Helper()
	e, px := pxfEngine(t, 2)
	store := NewHBase()
	hb := &HBaseConnector{Store: store}
	px.Register("hbase", hb)
	tab := store.CreateTable("sales", 4)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("2013%04d", i)
		tab.Put(key, "details:storeid", fmt.Sprintf("%d", i%5))
		tab.Put(key, "details:price", fmt.Sprintf("%d.50", i))
	}
	s := e.NewSession()
	if _, err := s.Query(`CREATE EXTERNAL TABLE my_hbase_sales (
		recordkey TEXT, "details:storeid" INT8, "details:price" DECIMAL(10,2)
	) LOCATION ('pxf://svc/sales?profile=hbase') FORMAT 'CUSTOM'`); err != nil {
		t.Fatal(err)
	}
	return s, hb
}

func TestHBaseConnectorWithPushdown(t *testing.T) {
	s, hb := hbaseSales(t)
	res, err := s.Query(`SELECT sum("details:price") FROM my_hbase_sales WHERE recordkey < '20130010'`)
	if err != nil {
		t.Fatal(err)
	}
	// Rows 0..9: sum of i+0.50 = 45 + 5 = 50.00.
	if got := res.Rows[0][0].String(); got != "50.00" {
		t.Fatalf("hbase sum = %v", got)
	}
	if hb.PushdownHits() == 0 {
		t.Error("row-key filter was not pushed down")
	}
	// ANALYZE via the Analyzer plugin.
	if _, err := s.Query("ANALYZE my_hbase_sales"); err != nil {
		t.Fatal(err)
	}
	// Aggregation with grouping over HBase cells.
	res, err = s.Query(`SELECT "details:storeid" AS store, count(*) FROM my_hbase_sales
		GROUP BY "details:storeid" ORDER BY store`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || res.Rows[0][1].Int() != 20 {
		t.Fatalf("group = %v", res.Rows)
	}
}

// TestHBaseKeyBoundsOnlyFromConjuncts: the connector skips keys only by
// comparisons the whole filter ANDs together. A row-key comparison under an
// OR, a NOT or an IS NULL — a single-table OR, the per-table OR the planner
// derives from a join's OR (DESIGN.md §18), an OR in an ON clause pushed to
// the HBase side — bounds nothing, or the scan drops rows the filter keeps.
// A comparison that is a conjunct bounds the scan whichever side the key is
// on, as a BETWEEN, and with a placeholder's value.
func TestHBaseKeyBoundsOnlyFromConjuncts(t *testing.T) {
	s, hb := hbaseSales(t)
	for _, q := range []string{
		"CREATE TABLE t (k INT8) DISTRIBUTED BY (k)",
		"INSERT INTO t VALUES (1), (2), (3)",
		`PREPARE below AS SELECT count(*) FROM my_hbase_sales WHERE recordkey < $1`,
	} {
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	two := "20130001|1 20130002|2"
	cases := []struct {
		q, want string
		bounded bool // the scan skips keys at the store
	}{
		{`SELECT recordkey, "details:storeid" FROM my_hbase_sales
			WHERE recordkey = '20130001' OR recordkey = '20130002' ORDER BY recordkey`, two, false},
		{`SELECT count(*) FROM my_hbase_sales WHERE NOT (recordkey = '20130001')`, "99", false},
		{`SELECT count(*) FROM my_hbase_sales WHERE (recordkey = '20130001') IS NOT NULL`, "100", false},
		{`SELECT recordkey, k FROM my_hbase_sales, t
			WHERE (recordkey = '20130001' AND k = 1) OR (recordkey = '20130002' AND k = 2)
			ORDER BY recordkey`, two, false},
		{`SELECT recordkey, k FROM t JOIN my_hbase_sales
			ON k = "details:storeid" AND (recordkey = '20130001' OR recordkey = '20130002')
			ORDER BY recordkey`, two, false},
		// A literal that reads like a conjunct is a value, nothing more.
		{`SELECT count(*) FROM my_hbase_sales
			WHERE recordkey <> 'x'') AND (recordkey = ''20130050'`, "100", false},
		{`SELECT recordkey, k FROM t JOIN my_hbase_sales
			ON k = "details:storeid" AND recordkey >= '20130001' AND recordkey < '20130003'
			ORDER BY recordkey`, two, true},
		{`SELECT recordkey, "details:storeid" FROM my_hbase_sales
			WHERE recordkey >= '20130001' AND "details:storeid" = 1 AND recordkey < '20130010'
			ORDER BY recordkey`, "20130001|1 20130006|1", true},
		{`SELECT recordkey, "details:storeid" FROM my_hbase_sales
			WHERE (recordkey = '20130001' OR recordkey = '20130002') AND recordkey < '20130003'
			ORDER BY recordkey`, two, true},
		{`SELECT count(*) FROM my_hbase_sales WHERE '20130010' > recordkey`, "10", true},
		{`SELECT recordkey, "details:storeid" FROM my_hbase_sales
			WHERE recordkey BETWEEN '20130001' AND '20130002' ORDER BY recordkey`, two, true},
		{`EXECUTE below('20130003')`, "3", true},
	}
	for _, c := range cases {
		before := hb.PushdownHits()
		res, err := s.Query(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		var rows []string
		for _, r := range res.Rows {
			var vals []string
			for _, d := range r {
				vals = append(vals, d.String())
			}
			rows = append(rows, strings.Join(vals, "|"))
		}
		if got := strings.Join(rows, " "); got != c.want {
			t.Errorf("%s\n= %q, want %q", c.q, got, c.want)
		}
		if hit := hb.PushdownHits() > before; hit != c.bounded {
			t.Errorf("%s\nskipped keys at the store: %v, want %v", c.q, hit, c.bounded)
		}
	}
}

func TestTextExportDirection(t *testing.T) {
	e, _ := pxfEngine(t, 2)
	fs := e.Cluster().FS
	rows := []types.Row{{types.NewInt64(1), types.NewString("a")}, {types.NewInt64(2), types.Null}}
	if err := WriteTextFile(fs, "/out/export.txt", "|", rows); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/out/export.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := "1|a\n2|\\N\n"
	if string(data) != want {
		t.Fatalf("export = %q, want %q", data, want)
	}
}

func TestUnknownProfile(t *testing.T) {
	e, _ := pxfEngine(t, 1)
	s := e.NewSession()
	if _, err := s.Query(`CREATE EXTERNAL TABLE x (a INT8)
		LOCATION ('pxf://svc/p?profile=nosuch') FORMAT 'CUSTOM'`); err != nil {
		t.Fatal(err) // DDL succeeds; the scan fails
	}
	if _, err := s.Query("SELECT * FROM x"); err == nil || !strings.Contains(err.Error(), "no connector") {
		t.Fatalf("err = %v", err)
	}
}
