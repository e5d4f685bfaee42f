package interconnect

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hawq/internal/clock"
	"hawq/internal/retry"
)

// The TCP interconnect's deadlines are enforced through clock.Clock
// timers instead of raw socket deadlines, so a clock.Sim chaos run
// never wall-blocks waiting for a peer: the timeout fires only when the
// driver advances virtual time.
const (
	// dialTimeout bounds connection setup for one dial attempt.
	dialTimeout = 10 * time.Second
	// handshakeTimeout bounds how long an accepted connection may take
	// to deliver its 14-byte stream hello.
	handshakeTimeout = 10 * time.Second
)

// TCPConfig tunes the TCP interconnect.
type TCPConfig struct {
	// Retry is the bounded-backoff policy wrapped around dials, so a
	// receiver that is restarting (failover re-registers its address)
	// does not fail the whole query on the first refused connection.
	// Zero fields default to 3 attempts from a 5ms base capped at
	// 100ms, jittered, on Clock.
	Retry retry.Policy
	// Clock drives the dial and handshake timers; nil means the wall
	// clock.
	Clock clock.Clock
}

func (c *TCPConfig) fill() {
	c.Clock = clock.Default(c.Clock)
	if c.Retry.MaxAttempts == 0 {
		c.Retry.MaxAttempts = 3
	}
	if c.Retry.BaseDelay == 0 {
		c.Retry.BaseDelay = 5 * time.Millisecond
	}
	if c.Retry.MaxDelay == 0 {
		c.Retry.MaxDelay = 100 * time.Millisecond
	}
	if c.Retry.Clock == nil {
		c.Retry.Clock = c.Clock
	}
}

// TCPNode is the TCP interconnect endpoint: one TCP connection per
// sender→receiver stream pair. Connection setup cost and per-connection
// state are what limit this design at scale (§4): a 5-slice query on
// 1,000 segments needs ~3 million connections. It exists to reproduce the
// Figure 12 comparison.
type TCPNode struct {
	seg  SegID
	ln   net.Listener
	book *AddrBook
	cfg  TCPConfig
	clk  clock.Clock

	mu       sync.Mutex
	recvs    map[motionKey]*tcpRecv
	sends    map[StreamID]*tcpSend
	pending  map[motionKey][]*tcpPendingConn
	canceled map[uint64]time.Time // recently canceled queries; late-opened streams are born canceled
	closed   bool
	wg       sync.WaitGroup
}

type tcpPendingConn struct {
	sender SegID
	conn   net.Conn
}

// Frame types on a TCP stream.
const (
	tcpFrameData = 1
	tcpFrameEOS  = 2 // a non-zero length is the stream's last message
	tcpFrameStop = 3 // receiver -> sender on the same connection
)

// NewTCPNode opens a TCP endpoint on 127.0.0.1 and registers it in the
// address book.
func NewTCPNode(seg SegID, book *AddrBook, cfg TCPConfig) (*TCPNode, error) {
	cfg.fill()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("interconnect: %w", err)
	}
	n := &TCPNode{
		seg:      seg,
		ln:       ln,
		book:     book,
		cfg:      cfg,
		clk:      cfg.Clock,
		recvs:    map[motionKey]*tcpRecv{},
		sends:    map[StreamID]*tcpSend{},
		pending:  map[motionKey][]*tcpPendingConn{},
		canceled: map[uint64]time.Time{},
	}
	book.SetTCP(seg, ln.Addr().String())
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Seg implements Node.
func (n *TCPNode) Seg() SegID { return n.seg }

// Close implements Node.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	for _, conns := range n.pending {
		for _, pc := range conns {
			pc.conn.Close()
		}
	}
	recvs := make([]*tcpRecv, 0, len(n.recvs))
	for _, r := range n.recvs {
		recvs = append(recvs, r)
	}
	sends := make([]*tcpSend, 0, len(n.sends))
	for _, s := range n.sends {
		sends = append(sends, s)
	}
	n.mu.Unlock()
	for _, r := range recvs {
		r.Close()
	}
	for _, s := range sends {
		s.cancel()
	}
	n.ln.Close()
	n.wg.Wait()
	return nil
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handleConn(conn)
		}()
	}
}

// handleConn reads the stream hello and hands the connection to its
// receiver (parking it if the receiver has not been set up yet). The
// handshake deadline is a clock.Clock watchdog, not a socket deadline:
// under clock.Sim it fires only when the driver advances virtual time
// (a simulated clock's Now would otherwise make socket deadlines lie in
// the past and reject every handshake).
func (n *TCPNode) handleConn(conn net.Conn) {
	var hello [14]byte
	hsDone := make(chan struct{})
	tm := n.clk.NewTimer(handshakeTimeout)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer tm.Stop()
		select {
		case <-tm.C():
			// A wall deadline in the past fails the pending read.
			conn.SetReadDeadline(time.Unix(1, 0))
		case <-hsDone:
		}
	}()
	_, err := io.ReadFull(conn, hello[:])
	close(hsDone)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	query := binary.BigEndian.Uint64(hello[0:])
	motion := int16(binary.BigEndian.Uint16(hello[8:]))
	sender := SegID(binary.BigEndian.Uint16(hello[10:]))
	receiver := SegID(binary.BigEndian.Uint16(hello[12:]))
	key := motionKey{Query: query, Motion: motion, Receiver: receiver}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return
	}
	if r := n.recvs[key]; r != nil {
		n.mu.Unlock()
		r.adopt(sender, conn)
		return
	}
	n.pending[key] = append(n.pending[key], &tcpPendingConn{sender: sender, conn: conn})
	n.mu.Unlock()
}

// OpenSend implements Node: dials one connection for this stream.
// Dials run under the configured bounded-retry policy with a
// clock-driven timeout per attempt.
func (n *TCPNode) OpenSend(sid StreamID) (SendStream, error) {
	addr, ok := n.book.TCP(sid.Receiver)
	if !ok {
		return nil, fmt.Errorf("interconnect: no TCP address for segment %d", sid.Receiver)
	}
	var conn net.Conn
	err := n.cfg.Retry.Do(context.Background(), func(int) error {
		ctx, cancel := clock.ContextWithTimeout(context.Background(), n.clk, dialTimeout, ErrTimeout)
		defer cancel()
		c, derr := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
		if derr != nil {
			return derr
		}
		conn = c
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("interconnect: dial %s: %w", sid, err)
	}
	var hello [14]byte
	binary.BigEndian.PutUint64(hello[0:], sid.Query)
	binary.BigEndian.PutUint16(hello[8:], uint16(sid.Motion))
	binary.BigEndian.PutUint16(hello[10:], uint16(sid.Sender))
	binary.BigEndian.PutUint16(hello[12:], uint16(sid.Receiver))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, err
	}
	s := &tcpSend{node: n, sid: sid, conn: conn, stop: make(chan struct{})}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	if _, c := n.canceled[sid.Query]; c {
		// The query was canceled before this stream opened (cancel races
		// QE startup): the send is born canceled so Send/Close fail fast
		// instead of writing to a receiver that is tearing down.
		s.canceled.Store(true)
		conn.Close()
	}
	n.sends[sid] = s
	n.mu.Unlock()
	go s.watchStop()
	return s, nil
}

// OpenRecv implements Node.
func (n *TCPNode) OpenRecv(query uint64, motion int16, senders []SegID) (RecvStream, error) {
	key := motionKey{Query: query, Motion: motion, Receiver: n.seg}
	r := &tcpRecv{
		key:  key,
		node: n,
		ch:   make(chan recvItem, 4*len(senders)+1),
		left: len(senders),
		done: make(chan struct{}),
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := n.recvs[key]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("interconnect: recv stream q%d/m%d already open", query, motion)
	}
	if _, c := n.canceled[query]; c {
		// Born closed: Recv returns ErrClosed immediately; the stream is
		// never registered, so its Close is a no-op.
		r.closed = true
		close(r.done)
		n.mu.Unlock()
		return r, nil
	}
	n.recvs[key] = r
	parked := n.pending[key]
	delete(n.pending, key)
	n.mu.Unlock()
	for _, pc := range parked {
		r.adopt(pc.sender, pc.conn)
	}
	return r, nil
}

// CancelQuery implements Node: closing the receive streams unblocks
// Recv (it returns ErrClosed) and drops the connections; send streams
// of the query are canceled so a producer blocked in Write fails with
// ErrCanceled.
func (n *TCPNode) CancelQuery(query uint64) {
	n.mu.Lock()
	if !n.closed {
		// Remember the cancellation so streams opened later (QE startup
		// racing the cancel) are born canceled. Tombstones older than a
		// minute are pruned here — the TCP node has no timer loop.
		now := n.clk.Now()
		for q, at := range n.canceled {
			if now.Sub(at) > time.Minute {
				delete(n.canceled, q)
			}
		}
		n.canceled[query] = now
	}
	var victims []*tcpRecv
	for key, r := range n.recvs {
		if key.Query == query {
			victims = append(victims, r)
		}
	}
	var sends []*tcpSend
	for sid, s := range n.sends {
		if sid.Query == query {
			sends = append(sends, s)
		}
	}
	n.mu.Unlock()
	for _, r := range victims {
		r.Close()
	}
	for _, s := range sends {
		s.cancel()
	}
}

// tcpSend is the sender half over one dedicated connection.
type tcpSend struct {
	node *TCPNode
	sid  StreamID
	conn net.Conn
	// mu serializes writes; stopped/canceled are atomic so the STOP
	// watcher and CancelQuery can flag a sender that is blocked inside
	// Write.
	mu       sync.Mutex
	stopped  atomic.Bool
	canceled atomic.Bool
	finished bool // the EOS frame is written
	closed   bool
	stop     chan struct{}
}

// cancel aborts the stream: the connection is closed so a blocked Write
// fails immediately and Send reports ErrCanceled.
func (s *tcpSend) cancel() {
	if s.canceled.CompareAndSwap(false, true) {
		s.conn.SetWriteDeadline(time.Unix(1, 0))
		s.conn.Close()
	}
}

// unregister drops the stream from the node's cancel index.
func (s *tcpSend) unregister() {
	if s.node == nil {
		return
	}
	s.node.mu.Lock()
	if s.node.sends[s.sid] == s {
		delete(s.node.sends, s.sid)
	}
	s.node.mu.Unlock()
}

// watchStop reads the back-channel for the receiver's STOP frame.
func (s *tcpSend) watchStop() {
	var b [1]byte
	//hawqcheck:ignore ctxflow — terminates when the conn closes; Close/cancel unblocks the Read
	for {
		if _, err := s.conn.Read(b[:]); err != nil {
			return
		}
		if b[0] == tcpFrameStop {
			s.stopped.Store(true)
			// Fail any write blocked on a full send buffer so the
			// producer observes ErrStopped promptly. SetWriteDeadline is
			// safe to call concurrently with a blocked Write.
			s.conn.SetWriteDeadline(time.Unix(1, 0))
			close(s.stop)
			return
		}
	}
}

// Send implements SendStream.
func (s *tcpSend) Send(data []byte) error { return s.send(tcpFrameData, data) }

// Finish implements SendStream.
func (s *tcpSend) Finish(data []byte) error { return s.send(tcpFrameEOS, data) }

func (s *tcpSend) send(ftype byte, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.canceled.Load() {
		return ErrCanceled
	}
	if s.stopped.Load() {
		return ErrStopped
	}
	if s.closed {
		return ErrClosed
	}
	frame := make([]byte, 5+len(data))
	frame[0] = ftype
	binary.BigEndian.PutUint32(frame[1:], uint32(len(data)))
	copy(frame[5:], data)
	//hawqcheck:ignore lockorder — frame write serialized under s.mu by design; stop watchdog breaks a blocked write
	if _, err := s.conn.Write(frame); err != nil {
		if s.canceled.Load() {
			return ErrCanceled
		}
		if s.stopped.Load() {
			return ErrStopped
		}
		return err
	}
	s.finished = ftype == tcpFrameEOS
	if len(data) > 0 || !s.finished {
		tcpMsgsSent.Inc()
		tcpBytesSent.Add(int64(len(data)))
	}
	return nil
}

// Close implements SendStream.
func (s *tcpSend) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.unregister()
	if s.canceled.Load() {
		return ErrCanceled
	}
	if !s.stopped.Load() && !s.finished {
		frame := []byte{tcpFrameEOS, 0, 0, 0, 0}
		//hawqcheck:ignore lockorder — frame write serialized under s.mu by design; stop watchdog breaks a blocked write
		s.conn.Write(frame)
	}
	// Give the kernel a moment to flush, then close. TCP guarantees
	// delivery of written data on a graceful close.
	if tc, ok := s.conn.(*net.TCPConn); ok {
		//hawqcheck:ignore lockorder — half-close under s.mu is a local socket op, not a peer wait
		tc.CloseWrite()
		return nil
	}
	//hawqcheck:ignore lockorder — close under s.mu is a local socket op, not a peer wait
	return s.conn.Close()
}

// tcpRecv merges per-sender connections.
type tcpRecv struct {
	key     motionKey
	node    *TCPNode
	mu      sync.Mutex
	conns   []net.Conn
	ch      chan recvItem
	left    int
	done    chan struct{}
	stopped bool
	closed  bool
}

// adopt starts a reader goroutine for one sender connection.
func (r *tcpRecv) adopt(sender SegID, conn net.Conn) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		conn.Close()
		return
	}
	r.conns = append(r.conns, conn)
	stopped := r.stopped
	r.mu.Unlock()
	if stopped {
		// The motion was stopped before this connection finished its
		// handshake; stop the late sender immediately.
		conn.Write([]byte{tcpFrameStop})
	}
	go func() {
		defer conn.Close()
		hdr := make([]byte, 5)
		for {
			if _, err := io.ReadFull(conn, hdr); err != nil {
				// Connection lost without EOS: surface as EOS so the
				// receiver does not hang (query restart handles errors).
				r.push(recvItem{sender: sender, eos: true})
				return
			}
			length := binary.BigEndian.Uint32(hdr[1:])
			data := make([]byte, length)
			if _, err := io.ReadFull(conn, data); err != nil {
				r.push(recvItem{sender: sender, eos: true})
				return
			}
			item := recvItem{sender: sender, data: data, eos: hdr[0] == tcpFrameEOS}
			if item.hasData() {
				tcpMsgsRecv.Inc()
				tcpBytesRecv.Add(int64(len(data)))
			}
			r.push(item)
			if item.eos {
				return
			}
		}
	}()
}

func (r *tcpRecv) push(item recvItem) {
	select {
	case r.ch <- item:
	case <-r.done:
	}
}

// Recv implements RecvStream.
func (r *tcpRecv) Recv() (RecvItem, bool, error) {
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return RecvItem{}, false, ErrClosed
		}
		if r.left == 0 || r.stopped {
			r.mu.Unlock()
			return RecvItem{}, true, nil
		}
		r.mu.Unlock()
		var item recvItem
		select {
		case item = <-r.ch:
		case <-r.done:
			return RecvItem{}, false, ErrClosed
		}
		if item.eos {
			// Counted here, seen by the next call: a final frame's
			// message is delivered before its end-of-stream.
			r.mu.Lock()
			r.left--
			r.mu.Unlock()
		}
		if item.hasData() {
			return RecvItem{Sender: item.sender, Data: item.data}, false, nil
		}
	}
}

// Stop implements RecvStream: send the STOP frame on every connection's
// back channel.
func (r *tcpRecv) Stop() {
	r.mu.Lock()
	if r.stopped || r.closed {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	conns := append([]net.Conn(nil), r.conns...)
	r.mu.Unlock()
	for _, c := range conns {
		c.Write([]byte{tcpFrameStop})
	}
	// Drain in-flight frames until Close so reader goroutines can exit.
	go func() {
		for {
			select {
			case <-r.ch:
			case <-r.done:
				return
			}
		}
	}()
}

// Close implements RecvStream.
func (r *tcpRecv) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.done)
	conns := append([]net.Conn(nil), r.conns...)
	r.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	r.node.mu.Lock()
	delete(r.node.recvs, r.key)
	r.node.mu.Unlock()
}
