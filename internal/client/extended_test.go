package client

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hawq/internal/types"
)

func TestExtendedProtocolPrepareBindExecute(t *testing.T) {
	srv := testServer(t)
	conn, err := Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Query("CREATE TABLE kv (k INT8, v TEXT) DISTRIBUTED BY (k); INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three')"); err != nil {
		t.Fatal(err)
	}
	if err := conn.Prepare("getv", "SELECT v FROM kv WHERE k = $1"); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[int64]string{1: "one", 2: "two", 3: "three"} {
		res, err := conn.ExecPrepared("getv", types.NewInt64(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != want {
			t.Fatalf("ExecPrepared(%d) = %+v, want %q", k, res.Rows, want)
		}
	}

	// Errors surface without wedging the connection.
	if err := conn.Prepare("getv", "SELECT 1"); err == nil {
		t.Fatal("duplicate Parse accepted")
	}
	if _, err := conn.ExecPrepared("nosuch"); err == nil {
		t.Fatal("unknown statement executed")
	}
	if _, err := conn.ExecPrepared("getv"); err == nil {
		t.Fatal("missing argument accepted")
	}
	res, err := conn.ExecPrepared("getv", types.NewInt64(2))
	if err != nil || res.Rows[0][0].Str() != "two" {
		t.Fatalf("connection unusable after errors: %v %+v", err, res)
	}

	// DEALLOCATE over simple query, then the statement is gone.
	if err := conn.Deallocate("getv"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ExecPrepared("getv", types.NewInt64(1)); err == nil {
		t.Fatal("deallocated statement executed")
	}
}

func TestExtendedProtocolConcurrentSessions(t *testing.T) {
	srv := testServer(t)
	setup, err := Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Query("CREATE TABLE nums (n INT8) DISTRIBUTED BY (n); INSERT INTO nums VALUES (1), (2), (3), (4), (5), (6), (7), (8)"); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	const sessions = 16
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := Connect(srv.Addr())
			if err != nil {
				errCh <- err
				return
			}
			defer conn.Close()
			if err := conn.Prepare("cnt", "SELECT count(*) FROM nums WHERE n <= $1"); err != nil {
				errCh <- err
				return
			}
			for i := 1; i <= 8; i++ {
				res, err := conn.ExecPrepared("cnt", types.NewInt64(int64(i)))
				if err != nil {
					errCh <- err
					return
				}
				if got := res.Rows[0][0].Int(); got != int64(i) {
					errCh <- fmt.Errorf("session %d: count(n<=%d) = %d", g, i, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestMalformedFramesDoNotCrashServer throws hostile payloads at every
// extended-protocol message type over a raw socket: each must produce
// an error (or a disconnect), never a panic or a hang.
func TestMalformedFramesDoNotCrashServer(t *testing.T) {
	srv := testServer(t)
	hostile := [][2]interface{}{
		{byte(MsgParse), []byte{}},
		{byte(MsgParse), []byte{0xff, 0xff, 0xff}},
		{byte(MsgParse), []byte{200, 1, 2}}, // length prefix past the end
		{byte(MsgExecute), []byte{}},
		{byte(MsgExecute), []byte{9}},
		{byte(MsgExecute), []byte{0}},                  // empty name, no row
		{byte(MsgExecute), []byte{5, 'a', 'b'}},        // truncated statement name
		{byte(MsgExecute), []byte{1, 's', 0xff, 0xff}}, // garbage row
		{byte(MsgExecute), []byte{1, 's', 2, 0}},       // row shorter than its header
		{byte(MsgExecute), []byte{1, 's', 0, 'x'}},     // trailing junk after the row
		{byte(MsgExecute), encodeExecute("nosuch", nil)},
		{byte(MsgCancel), []byte{1, 2, 3}}, // short key is ignored
		{byte('@'), []byte("junk")},        // unknown type tag
	}
	for i, h := range hostile {
		typ, payload := h[0].(byte), h[1].([]byte)
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// Consume greeting.
		for {
			mt, _, err := readMsg(c)
			if err != nil {
				t.Fatalf("case %d: greeting: %v", i, err)
			}
			if mt == MsgReady {
				break
			}
		}
		if err := writeMsg(c, typ, payload); err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		// The server must answer with an error-or-ack unit or hang up;
		// either way the read terminates.
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		for {
			mt, _, err := readMsg(c)
			if err != nil || mt == MsgReady {
				break
			}
		}
		c.Close()
	}
	// The server survived: a normal query still works.
	conn, err := Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := conn.QueryOne("SELECT 40 + 2")
	if err != nil || res.Rows[0][0].Int() != 42 {
		t.Fatalf("server unusable after hostile frames: %v %+v", err, res)
	}
}

// TestGracefulCloseDrainsIdleConnections verifies Close returns
// promptly with idle clients connected (their blocked reads are
// unblocked by the server) — the pre-drain implementation hung forever
// here.
func TestGracefulCloseDrainsIdleConnections(t *testing.T) {
	srv := testServer(t)
	var conns []*Conn
	for i := 0; i < 8; i++ {
		c, err := Connect(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return with idle connections open")
	}
	for _, c := range conns {
		c.Close()
	}
}

// TestGracefulCloseWaitsForInFlightStatement verifies a statement
// running when Close is called completes and delivers its result before
// the connection is torn down.
func TestGracefulCloseWaitsForInFlightStatement(t *testing.T) {
	srv := testServer(t)
	conn, err := Connect(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Query("CREATE TABLE g (n INT8) DISTRIBUTED BY (n); INSERT INTO g VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		res *Result
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := conn.QueryOne("SELECT count(*) FROM g")
		resCh <- outcome{res, err}
	}()
	// Close concurrently with the query; the drain must let the
	// statement finish (it is fast) rather than killing it.
	closeCh := make(chan error, 1)
	go func() { closeCh <- srv.Close() }()
	if err := <-closeCh; err != nil {
		t.Fatal(err)
	}
	o := <-resCh
	// Either the query finished before the server noticed it (normal
	// drain) — then the result must be correct — or the connection was
	// already read-blocked and closed as idle before the query started.
	if o.err == nil && o.res.Rows[0][0].Int() != 3 {
		t.Fatalf("drained query returned %+v", o.res)
	}
	// New statements are refused after Close.
	if _, err := conn.QueryOne("SELECT 1"); err == nil {
		t.Fatal("statement accepted after Close")
	}
}
