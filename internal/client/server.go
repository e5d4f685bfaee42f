package client

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hawq/internal/engine"
	"hawq/internal/types"
)

// defaultDrainTimeout bounds how long Close waits for busy connections
// to finish their in-flight statement before canceling them.
const defaultDrainTimeout = 5 * time.Second

// Server exposes an engine over the wire protocol. Each connection gets
// its own session (and therefore its own transaction state), as with the
// postmaster forking a QD per connection (§2.4).
type Server struct {
	eng *engine.Engine
	ln  net.Listener
	wg  sync.WaitGroup

	// conns maps backend keys to live connections, for cancel requests
	// arriving on a separate connection and for shutdown draining.
	smu     sync.Mutex
	conns   map[uint64]*connState
	nextKey atomic.Uint64

	mu     sync.Mutex
	closed bool

	// drain is how long Close waits for in-flight statements.
	drain time.Duration
}

// connState tracks one connection's lifecycle for graceful shutdown:
// busy marks an executing statement unit, stop tells the serve loop to
// exit once the current unit (if any) completes.
type connState struct {
	conn net.Conn
	sess *engine.Session
	mu   sync.Mutex
	busy bool
	stop bool
}

// beginUnit marks the connection busy; false means the server is
// draining and no new statement may start.
func (cs *connState) beginUnit() bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.stop {
		return false
	}
	cs.busy = true
	return true
}

func (cs *connState) endUnit() {
	cs.mu.Lock()
	cs.busy = false
	cs.mu.Unlock()
}

func (cs *connState) stopping() bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.stop
}

// NewServer starts listening on addr ("127.0.0.1:0" for an ephemeral
// port).
func NewServer(eng *engine.Engine, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	s := &Server{eng: eng, ln: ln, conns: make(map[uint64]*connState), drain: defaultDrainTimeout}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetDrainTimeout adjusts how long Close waits for in-flight statements
// (tests; callers must set it before Close).
func (s *Server) SetDrainTimeout(d time.Duration) { s.drain = d }

// Close stops the server gracefully: no new connections or statements
// are accepted, idle connections close immediately, and busy ones get
// until the drain deadline to finish their in-flight statement — after
// which they are canceled and the sockets force-closed. Close returns
// only when every connection goroutine has exited, so a clean return
// means no leaks.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	// Mark every connection stopping under the lock, but close sockets
	// outside it: a Close can block, and serve goroutines need s.smu to
	// deregister.
	var idle []net.Conn
	s.smu.Lock()
	for _, cs := range s.conns {
		cs.mu.Lock()
		cs.stop = true
		busy := cs.busy
		cs.mu.Unlock()
		if !busy {
			idle = append(idle, cs.conn)
		}
	}
	s.smu.Unlock()
	for _, c := range idle {
		// Idle: unblock the pending read now.
		c.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timer := s.eng.Cluster().Clock().NewTimer(s.drain)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C():
		// Drain deadline passed: abort whatever is still running.
		var stuck []*connState
		s.smu.Lock()
		for _, cs := range s.conns {
			stuck = append(stuck, cs)
		}
		s.smu.Unlock()
		for _, cs := range stuck {
			cs.sess.Cancel()
			cs.conn.Close()
		}
		<-done
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
		}()
	}
}

// serve runs one connection: a QD session loop. A failed write means
// the peer is gone, so the connection is torn down. The session is
// announced with a backend key; a cancel request naming that key may
// arrive on any other connection (this one is busy while a query runs)
// and aborts the in-flight statement.
//
// Frames are read through br and written into bw, and bw reaches the
// socket only when the next read would block (nothing of a further
// request is buffered), when the connection is stopping, and when serve
// returns: a statement's whole reply, and the replies of requests that
// arrived pipelined in one segment, leave as one write. A client cannot
// be waiting for a reply that is held back, because a reply is held
// back only while bytes it sent after that request are still unread.
func (s *Server) serve(conn net.Conn) {
	defer conn.Close()
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	// The peer may be gone; there is nobody to report a failed flush to.
	defer bw.Flush()
	cs := &connState{conn: conn, sess: s.eng.NewSession()}
	key := s.nextKey.Add(1)
	s.smu.Lock()
	s.conns[key] = cs
	s.smu.Unlock()
	defer func() {
		s.smu.Lock()
		delete(s.conns, key)
		s.smu.Unlock()
	}()
	// A connection accepted in the instant the server began closing
	// must drain like the rest.
	s.mu.Lock()
	if s.closed {
		cs.stop = true
	}
	s.mu.Unlock()
	if cs.stopping() {
		return
	}
	var keyBuf [8]byte
	binary.BigEndian.PutUint64(keyBuf[:], key)
	if err := writeMsg(bw, MsgBackendKey, keyBuf[:]); err != nil {
		return
	}
	if err := writeMsg(bw, MsgReady, nil); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	for {
		typ, payload, err := readMsg(br)
		if err != nil {
			return
		}
		if !cs.beginUnit() {
			return
		}
		switch typ {
		case MsgTerminate:
			cs.endUnit()
			return
		case MsgQuery:
			err = s.handleQuery(bw, cs.sess, string(payload))
		case MsgParse:
			err = s.handleParse(bw, cs.sess, payload)
		case MsgExecute:
			err = s.handleExecute(bw, cs.sess, payload)
		case MsgCancel:
			// Cancel connections do their work and hang up.
			if len(payload) == 8 {
				s.cancelSession(binary.BigEndian.Uint64(payload))
			}
			cs.endUnit()
			return
		default:
			err = respondError(bw, fmt.Errorf("unexpected message %q", typ))
		}
		// Flushed while the unit is still busy, so that Close cannot take
		// the connection for idle and shut the socket under the reply.
		if err == nil && (br.Buffered() == 0 || cs.stopping()) {
			err = bw.Flush()
		}
		cs.endUnit()
		if err != nil || cs.stopping() {
			return
		}
	}
}

// cancelSession aborts the in-flight statement of the session holding
// the given backend key, if any. Unknown keys are ignored (the session
// may have disconnected already).
func (s *Server) cancelSession(key uint64) {
	s.smu.Lock()
	cs := s.conns[key]
	s.smu.Unlock()
	if cs != nil {
		cs.sess.Cancel()
	}
}

// respondError sends an error unit (error + ready).
func respondError(w *bufio.Writer, err error) error {
	if werr := writeMsg(w, MsgError, []byte(err.Error())); werr != nil {
		return werr
	}
	return writeMsg(w, MsgReady, nil)
}

// handleQuery executes one query and streams its results. The returned
// error is non-nil only for wire failures; query errors go to the peer
// as MsgError.
func (s *Server) handleQuery(w *bufio.Writer, sess *engine.Session, sql string) error {
	results, err := sess.Execute(sql)
	if err != nil {
		return respondError(w, err)
	}
	for _, res := range results {
		if err := writeResult(w, res); err != nil {
			return err
		}
	}
	return writeMsg(w, MsgReady, nil)
}

// handleParse registers a prepared statement in the connection's
// session.
func (s *Server) handleParse(w *bufio.Writer, sess *engine.Session, payload []byte) error {
	name, sql, err := decodeParse(payload)
	if err == nil {
		err = sess.Prepare(name, sql)
	}
	if err != nil {
		return respondError(w, err)
	}
	if err := writeMsg(w, MsgParseOK, nil); err != nil {
		return err
	}
	return writeMsg(w, MsgReady, nil)
}

// handleExecute runs a prepared statement with the argument row the
// message carries and streams its result.
func (s *Server) handleExecute(w *bufio.Writer, sess *engine.Session, payload []byte) error {
	stmt, args, err := decodeExecute(payload)
	var res *engine.Result
	if err == nil {
		res, err = sess.ExecutePrepared(stmt, args...)
	}
	if err != nil {
		return respondError(w, err)
	}
	if err := writeResult(w, res); err != nil {
		return err
	}
	return writeMsg(w, MsgReady, nil)
}

// writeResult streams one statement result: row description and rows
// when present, then the command tag.
func writeResult(w *bufio.Writer, res *engine.Result) error {
	if res.Schema != nil {
		if err := writeMsg(w, MsgRowDesc, encodeSchema(res.Schema)); err != nil {
			return err
		}
		var buf []byte
		for _, row := range res.Rows {
			buf = types.EncodeRow(buf[:0], row)
			if err := writeMsg(w, MsgDataRow, buf); err != nil {
				return err
			}
		}
	}
	return writeMsg(w, MsgComplete, []byte(res.Tag))
}
