package client

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"hawq/internal/engine"
	"hawq/internal/obs"
	"hawq/internal/types"
)

// ioCounts is what the server side of every connection of a
// countingServer did to its socket.
type ioCounts struct {
	reads, writes, maxWrite atomic.Int64
}

type countingConn struct {
	net.Conn
	n *ioCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	c.n.reads.Add(1)
	return c.Conn.Read(p)
}

func (c countingConn) Write(p []byte) (int, error) {
	c.n.writes.Add(1)
	for {
		max := c.n.maxWrite.Load()
		if int64(len(p)) <= max || c.n.maxWrite.CompareAndSwap(max, int64(len(p))) {
			break
		}
	}
	return c.Conn.Write(p)
}

type countingListener struct {
	net.Listener
	n *ioCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

// countingServer is NewServer on a listener that counts the socket
// calls of the connections it accepts: serve runs over a counting
// net.Conn.
func countingServer(tb testing.TB) (*Server, *ioCounts) {
	tb.Helper()
	eng, err := engine.New(engine.Config{Segments: 4})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { eng.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	n := &ioCounts{}
	s := &Server{eng: eng, ln: countingListener{ln, n}, conns: make(map[uint64]*connState), drain: defaultDrainTimeout}
	s.wg.Add(1)
	go s.acceptLoop()
	tb.Cleanup(func() { s.Close() })
	return s, n
}

// pointTable creates kv with rows 0..n-1 and prepares the point lookup
// "getv" on conn.
func pointTable(tb testing.TB, conn *Conn, n int) {
	tb.Helper()
	if _, err := conn.Query("CREATE TABLE kv (k INT8, v INT8) DISTRIBUTED BY (k)"); err != nil {
		tb.Fatal(err)
	}
	for lo := 0; lo < n; lo += 1000 {
		var vals []string
		for k := lo; k < lo+1000 && k < n; k++ {
			vals = append(vals, fmt.Sprintf("(%d, %d)", k, k*k))
		}
		if _, err := conn.Query("INSERT INTO kv VALUES " + strings.Join(vals, ", ")); err != nil {
			tb.Fatal(err)
		}
	}
	if err := conn.Prepare("getv", "SELECT v FROM kv WHERE k = $1"); err != nil {
		tb.Fatal(err)
	}
}

// TestServedStatementSyscallBudget pins what a served statement costs
// the server in socket calls and frames — counts, not times: a prepared
// execution is one Execute frame, one read and one write, its reply four
// frames, the whole reply of any statement is one write however many
// frames it has, and a large result still leaves through a bounded
// buffer.
func TestServedStatementSyscallBudget(t *testing.T) {
	srv, n := countingServer(t)
	conn, err := Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pointTable(t, conn, 10000)

	const stmts = 50
	measure := func(run func(k int64)) (reads, writes int64) {
		run(0) // the next read is already posted when counting starts
		r0, w0 := n.reads.Load(), n.writes.Load()
		for k := int64(1); k <= stmts; k++ {
			run(k)
		}
		return n.reads.Load() - r0, n.writes.Load() - w0
	}

	reads, writes := measure(func(k int64) {
		res, err := conn.ExecPrepared("getv", types.NewInt64(k))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != k*k {
			t.Fatalf("getv(%d) = %+v, %v", k, res, err)
		}
	})
	if writes != stmts {
		t.Errorf("%d prepared point statements cost %d socket writes, want one each", stmts, writes)
	}
	// One read per statement; the count may take in the read the server
	// posts after the last reply.
	if reads > stmts+1 {
		t.Errorf("%d prepared point statements cost %d socket reads, want one each", stmts, reads)
	}
	if got := preparedReplyFrames(t, srv, 7); string(got) != string([]byte{MsgRowDesc, MsgDataRow, MsgComplete, MsgReady}) {
		t.Errorf("a prepared point statement's reply is frames %q, want RowDesc, DataRow, Complete, Ready", got)
	}

	_, writes = measure(func(k int64) {
		res, err := conn.QueryOne(fmt.Sprintf("SELECT v FROM kv WHERE k = %d", k))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != k*k {
			t.Fatalf("text lookup %d = %+v, %v", k, res, err)
		}
	})
	if writes != stmts {
		t.Errorf("%d simple-query statements cost %d socket writes, want one each", stmts, writes)
	}

	w0 := n.writes.Load()
	n.maxWrite.Store(0)
	res, err := conn.QueryOne("SELECT k, v FROM kv")
	if err != nil || len(res.Rows) != 10000 {
		t.Fatalf("full scan: %d rows, %v", len(res.Rows), err)
	}
	if w := n.writes.Load() - w0; w < 2 {
		t.Errorf("a 10 000-row result left in %d write(s): the reply is buffered whole", w)
	}
	if max := n.maxWrite.Load(); max > 8<<10 {
		t.Errorf("largest socket write of a 10 000-row result is %d bytes: the reply buffer is not bounded", max)
	}
}

// preparedReplyFrames prepares "getv" on a raw connection, executes it
// for key k, and returns the type tags of the reply's frames.
func preparedReplyFrames(t *testing.T, srv *Server, k int64) []byte {
	t.Helper()
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	unit := func() []byte {
		var tags []byte
		for {
			typ, payload, err := readMsg(c)
			if err != nil {
				t.Fatal(err)
			}
			if typ == MsgError {
				t.Fatalf("server: %s", payload)
			}
			if tags = append(tags, typ); typ == MsgReady {
				return tags
			}
		}
	}
	unit() // greeting
	if err := writeMsg(c, MsgParse, encodeParse("getv", "SELECT v FROM kv WHERE k = $1")); err != nil {
		t.Fatal(err)
	}
	unit()
	if err := writeMsg(c, MsgExecute, encodeExecute("getv", []types.Datum{types.NewInt64(k)})); err != nil {
		t.Fatal(err)
	}
	return unit()
}

// BenchmarkServedPoint is a prepared point lookup through the serving
// layer on loopback: one Execute out, four reply frames back, a
// direct dispatch to one QE in between. Beside the time it reports what
// the statement cost in server socket writes and interconnect datagrams.
func BenchmarkServedPoint(b *testing.B) {
	srv, n := countingServer(b)
	conn, err := Connect(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	pointTable(b, conn, 1000)
	lookup := func(i int) {
		k := int64(i % 1000)
		res, err := conn.ExecPrepared("getv", types.NewInt64(k))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != k*k {
			b.Fatalf("getv(%d) = %+v, %v", k, res, err)
		}
	}
	for i := 0; i < 3000; i++ { // every segment's blocks seen twice
		lookup(i)
	}
	b.ReportAllocs()
	w0, d0 := n.writes.Load(), obs.Value("interconnect.udp_packets_sent")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(n.writes.Load()-w0)/float64(b.N), "writes/op")
	b.ReportMetric(float64(obs.Value("interconnect.udp_packets_sent")-d0)/float64(b.N), "datagrams/op")
}
