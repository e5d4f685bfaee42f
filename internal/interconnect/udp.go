package interconnect

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hawq/internal/clock"
)

// MaxPayload is the largest Send payload in bytes: one datagram per
// payload, comfortably under typical MTU+jumbo limits without IP
// fragmentation. The executor's motion operators keep their
// accumulation target (executor.DefaultMotionPayload) below it, with
// headroom for the row that straddles the flush threshold — Send fails
// outright on oversized payloads.
const MaxPayload = 8 * 1024

// UDPConfig tunes the UDP interconnect.
type UDPConfig struct {
	// RecvWindow is the per-sender receive queue capacity in packets.
	RecvWindow int
	// LossRate injects random packet loss in [0,1) for testing the
	// recovery machinery. Applies to every outgoing packet. Chaos runs
	// adjust it at runtime through UDPNode.SetLossRate.
	LossRate float64
	// Seed seeds the loss-injection RNG.
	Seed int64
	// DrainTimeout bounds how long a send stream's Close waits for the
	// EOS acknowledgement before giving up with ErrTimeout. Default
	// 10s. Chaos runs lower it so a stalled peer converts to a clean
	// error within a bounded number of sim-clock ticks.
	DrainTimeout time.Duration
	// Clock paces retransmission timers and timeouts; nil means the
	// wall clock. Simulations inject clock.Sim for deterministic
	// replay.
	Clock clock.Clock
}

func (c *UDPConfig) fill() {
	if c.RecvWindow <= 0 {
		c.RecvWindow = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	c.Clock = clock.Default(c.Clock)
}

// AddrBook maps node IDs to their interconnect addresses.
type AddrBook struct {
	mu  sync.RWMutex
	udp map[SegID]*net.UDPAddr
	tcp map[SegID]string
}

// NewAddrBook creates an empty address book.
func NewAddrBook() *AddrBook {
	return &AddrBook{udp: map[SegID]*net.UDPAddr{}, tcp: map[SegID]string{}}
}

// SetUDP registers a node's UDP address.
func (b *AddrBook) SetUDP(seg SegID, addr *net.UDPAddr) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.udp[seg] = addr
}

// UDP resolves a node's UDP address.
func (b *AddrBook) UDP(seg SegID) (*net.UDPAddr, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	a, ok := b.udp[seg]
	return a, ok
}

// SetTCP registers a node's TCP listen address.
func (b *AddrBook) SetTCP(seg SegID, addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tcp[seg] = addr
}

// TCP resolves a node's TCP address.
func (b *AddrBook) TCP(seg SegID) (string, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	a, ok := b.tcp[seg]
	return a, ok
}

// Retransmission timing bounds. Loopback RTTs are microseconds; the
// bounds keep the simulation snappy while still exercising backoff.
const (
	rtoInit = 20 * time.Millisecond
	rtoMin  = 5 * time.Millisecond
	rtoMax  = 500 * time.Millisecond
	// queryAfter is how long a sender waits with an empty unacked queue
	// and no capacity before sending a status query (§4.5).
	queryAfter = 50 * time.Millisecond
	// tombstoneTTL is how long a node remembers a closed receiver, a
	// canceled query and a quiet early-arrival buffer; tombstoneSweep
	// is how often timerLoop looks for expired ones.
	tombstoneTTL   = time.Minute
	tombstoneSweep = time.Second
	// maxMissing is how many absent sequences one OOO notice lists.
	maxMissing = 64
)

// UDPNode is one endpoint of the UDP interconnect: a single UDP socket
// multiplexing every stream of this node, a background receive goroutine
// (emptying the kernel buffer quickly, §4.2), and a retransmit timer.
type UDPNode struct {
	seg  SegID
	conn *net.UDPConn
	book *AddrBook
	cfg  UDPConfig
	clk  clock.Clock

	mu       sync.Mutex
	sends    map[StreamID]*udpSend
	recvs    map[motionKey]*udpRecv
	ended    map[motionKey]time.Time // closed receivers; answer stray data with STOP
	canceled map[uint64]time.Time    // recently canceled queries; late-opened streams are born canceled
	early    map[motionKey]*earlyBuf // packets that beat their receiver's OpenRecv
	rng      *rand.Rand              // loss injection; guarded by mu
	lossRate atomic.Uint64           // math.Float64bits of the injected loss probability
	closed   bool
	done     chan struct{}
	wg       sync.WaitGroup
}

// NewUDPNode opens a UDP endpoint on 127.0.0.1 and registers it in the
// address book.
func NewUDPNode(seg SegID, book *AddrBook, cfg UDPConfig) (*UDPNode, error) {
	cfg.fill()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("interconnect: %w", err)
	}
	// Large kernel buffers reduce artificial loss under fan-in.
	conn.SetReadBuffer(4 << 20)
	conn.SetWriteBuffer(4 << 20)
	n := &UDPNode{
		seg:      seg,
		conn:     conn,
		book:     book,
		cfg:      cfg,
		clk:      cfg.Clock,
		sends:    map[StreamID]*udpSend{},
		recvs:    map[motionKey]*udpRecv{},
		ended:    map[motionKey]time.Time{},
		canceled: map[uint64]time.Time{},
		early:    map[motionKey]*earlyBuf{},
		rng:      rand.New(rand.NewSource(cfg.Seed ^ int64(seg))),
		done:     make(chan struct{}),
	}
	n.SetLossRate(cfg.LossRate)
	book.SetUDP(seg, conn.LocalAddr().(*net.UDPAddr))
	n.wg.Add(2)
	go n.recvLoop()
	go n.timerLoop()
	return n, nil
}

// Seg implements Node.
func (n *UDPNode) Seg() SegID { return n.seg }

// Close implements Node.
func (n *UDPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.done)
	sends := make([]*udpSend, 0, len(n.sends))
	for _, s := range n.sends {
		sends = append(sends, s)
	}
	recvs := make([]*udpRecv, 0, len(n.recvs))
	for _, r := range n.recvs {
		recvs = append(recvs, r)
	}
	n.mu.Unlock()
	for _, s := range sends {
		s.shutdown()
	}
	for _, r := range recvs {
		r.Close()
	}
	n.conn.Close()
	n.wg.Wait()
	return nil
}

// SetLossRate changes the injected packet-loss probability at runtime.
// The chaos scheduler uses it to model loss bursts and stalled peers
// (rate 1 silences the node entirely) without rebuilding the cluster.
func (n *UDPNode) SetLossRate(rate float64) {
	n.lossRate.Store(math.Float64bits(rate))
}

// transmit writes one packet, subject to injected loss. Without loss
// injection (every non-chaos run) it takes no lock.
func (n *UDPNode) transmit(raddr *net.UDPAddr, buf []byte) {
	if rate := math.Float64frombits(n.lossRate.Load()); rate > 0 {
		n.mu.Lock()
		drop := n.rng.Float64() < rate
		n.mu.Unlock()
		if drop {
			udpPacketsDropped.Inc()
			return
		}
	}
	udpPacketsSent.Inc()
	udpBytesSent.Add(int64(len(buf)))
	n.conn.WriteToUDP(buf, raddr)
}

// transmitCtl sends an unsequenced packet — an acknowledgement (extra is
// an OOO's missing list), a STOP, a status query — encoded on the
// caller's stack: none of them is kept for retransmission.
func (n *UDPNode) transmitCtl(raddr *net.UDPAddr, h header, extra []byte) {
	var buf [headerSize + 4*maxMissing]byte
	putHeader(buf[:], h)
	n.transmit(raddr, buf[:headerSize+copy(buf[headerSize:], extra)])
}

func (n *UDPNode) recvLoop() {
	defer n.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		sz, raddr, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-n.done:
				return
			default:
				continue
			}
		}
		h, payload, err := decodePacket(buf[:sz])
		if err != nil {
			continue
		}
		udpPacketsRecv.Inc()
		udpBytesRecv.Add(int64(sz))
		if len(payload) > 0 {
			// buf is reused by the next read; deliveries must own their
			// bytes.
			payload = append([]byte(nil), payload...)
		}
		n.dispatch(h, payload, raddr)
	}
}

func (n *UDPNode) dispatch(h header, payload []byte, raddr *net.UDPAddr) {
	sid := StreamID{Query: h.Query, Motion: h.Motion, Sender: h.Sender, Receiver: h.Receiver}
	switch h.Type {
	case ptData, ptEOS, ptQuery:
		key := motionKey{Query: h.Query, Motion: h.Motion, Receiver: h.Receiver}
		n.mu.Lock()
		r := n.recvs[key]
		// With no receiver, reply (if its Type gets set) answers for it.
		reply := header{Query: h.Query, Motion: h.Motion, Sender: h.Sender, Receiver: h.Receiver}
		if r == nil {
			if _, endedRecently := n.ended[key]; endedRecently {
				// Straggling sender for a finished stream: stop it.
				reply.Type = ptStop
			} else if _, c := n.canceled[h.Query]; !c {
				// The receiver has not set up yet (a hash join opens its
				// probe motion only after draining the build side): keep
				// the packet for OpenRecv and acknowledge it, so a healthy
				// sender never waits out a retransmission timer.
				reply.Type, reply.SR = ptAck, n.bufferEarlyLocked(key, h, payload, raddr)
			}
		}
		n.mu.Unlock()
		if r != nil {
			r.handlePacket(h, payload, raddr, false)
		} else if reply.Type != 0 {
			n.transmitCtl(raddr, reply, nil)
		}
	case ptAck, ptDup, ptOOO, ptStop:
		n.mu.Lock()
		s := n.sends[sid]
		n.mu.Unlock()
		if s == nil {
			return
		}
		switch h.Type {
		case ptAck, ptDup:
			s.handleAck(h)
		case ptOOO:
			s.handleOOO(h, payload)
		case ptStop:
			s.handleStop()
		}
	}
}

// timerLoop drives retransmission, sender status queries and waiter
// wakeups. It scans every send stream's unacked queue — the expiration
// ring of §4.2.
func (n *UDPNode) timerLoop() {
	defer n.wg.Done()
	t := n.clk.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	var nextSweep time.Time
	for {
		select {
		case <-n.done:
			return
		case <-t.C():
		}
		n.mu.Lock()
		sends := make([]*udpSend, 0, len(n.sends))
		for _, s := range n.sends {
			sends = append(sends, s)
		}
		now := n.clk.Now()
		if !now.Before(nextSweep) {
			nextSweep = now.Add(tombstoneSweep)
			n.sweepLocked(now)
		}
		n.mu.Unlock()
		for _, s := range sends {
			s.tick(now)
		}
	}
}

// sweepLocked expires what the node remembers about finished work.
// Every statement leaves a tombstone behind for tombstoneTTL, so the
// maps hold tens of thousands of entries on a busy node: timerLoop
// sweeps them once per tombstoneSweep, not on every 2 ms tick. Callers
// hold n.mu.
func (n *UDPNode) sweepLocked(now time.Time) {
	for k, at := range n.ended {
		if now.Sub(at) > tombstoneTTL {
			delete(n.ended, k)
		}
	}
	for q, at := range n.canceled {
		if now.Sub(at) > tombstoneTTL {
			delete(n.canceled, q)
		}
	}
	for k, e := range n.early {
		if now.Sub(e.seen) > tombstoneTTL {
			// Its senders went quiet and no receiver ever came. The
			// data was acknowledged, so it cannot be dropped silently:
			// a receiver that still shows up is born canceled and its
			// query fails cleanly.
			delete(n.early, k)
			n.canceled[k.Query] = now
		}
	}
}

// OpenSend implements Node.
func (n *UDPNode) OpenSend(sid StreamID) (SendStream, error) {
	raddr, ok := n.book.UDP(sid.Receiver)
	if !ok {
		return nil, fmt.Errorf("interconnect: no address for segment %d", sid.Receiver)
	}
	s := &udpSend{
		n:        n,
		sid:      sid,
		raddr:    raddr,
		nextSeq:  1,
		unacked:  map[uint32]*outPkt{},
		cwnd:     4,
		ssthresh: 64,
		rto:      rtoInit,
	}
	s.cond = sync.NewCond(&s.mu)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.sends[sid]; dup {
		return nil, fmt.Errorf("interconnect: send stream %s already open", sid)
	}
	if _, c := n.canceled[sid.Query]; c {
		// The query was canceled before this stream opened (cancel races
		// QE startup): the send is born canceled so its Close skips the
		// EOS drain instead of waiting out DrainTimeout.
		s.canceled = true
	}
	n.sends[sid] = s
	return s, nil
}

// OpenRecv implements Node.
func (n *UDPNode) OpenRecv(query uint64, motion int16, senders []SegID) (RecvStream, error) {
	key := motionKey{Query: query, Motion: motion, Receiver: n.seg}
	r := &udpRecv{
		n:      n,
		key:    key,
		conns:  make(map[SegID]*rcvConn, len(senders)),
		wake:   make(chan struct{}, 1),
		left:   len(senders),
		cancel: make(chan struct{}),
	}
	for _, s := range senders {
		r.conns[s] = &rcvConn{sender: s, expected: 1}
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
		// Born canceled: Recv returns ErrCanceled immediately rather than
		// waiting for senders that will never come.
		r.canceled = true
		close(r.cancel)
	}
	n.recvs[key] = r
	early := n.early[key]
	delete(n.early, key)
	n.mu.Unlock()
	// Replay what arrived before this call. The receive goroutine may
	// already be feeding r newer packets; handlePacket parks those in the
	// out-of-order ring until the replay catches up.
	if early != nil {
		for _, p := range early.pkts {
			r.handlePacket(p.h, p.payload, p.raddr, true)
		}
	}
	return r, nil
}

// earlyBuf holds the DATA/EOS packets of one motion that arrived before
// its receiver called OpenRecv (GPDB's UDPIFC keeps the same start-up
// cache). It is bounded by the sender's own flow control: nothing has
// been consumed, so each sender may have RecvWindow packets plus its EOS
// outstanding, and only in-order packets are kept.
type earlyBuf struct {
	pkts []earlyPkt
	next map[SegID]uint32 // per sender: the next in-order seq to keep
	seen time.Time        // last sign of life from any sender
}

type earlyPkt struct {
	h       header
	payload []byte
	raddr   *net.UDPAddr
}

// bufferEarlyLocked files one packet for a receiver that is not open yet
// and returns the SR to acknowledge: the sender's highest in-order seq
// kept (the ack's SC stays 0, nothing is consumed). A gap or an over-cap
// packet is not kept and the sender's retransmission covers it, as
// before. Callers hold n.mu.
func (n *UDPNode) bufferEarlyLocked(key motionKey, h header, payload []byte, raddr *net.UDPAddr) (sr uint32) {
	e := n.early[key]
	if e == nil {
		e = &earlyBuf{next: map[SegID]uint32{}}
		n.early[key] = e
	}
	e.seen = n.clk.Now()
	next := e.next[h.Sender]
	if next == 0 {
		next = 1
	}
	if h.Type != ptQuery && h.Seq == next && int(next) <= n.cfg.RecvWindow+1 {
		e.pkts = append(e.pkts, earlyPkt{h: h, payload: payload, raddr: raddr})
		next++
		e.next[h.Sender] = next
	}
	return next - 1
}

// outPkt is one sent-but-unacknowledged packet in the expiration queue.
type outPkt struct {
	seq     uint32
	buf     []byte
	sentAt  time.Time
	resends int
}

// udpSend is one virtual connection from this node to one receiver. All
// such connections share the node's socket (§4.2).
type udpSend struct {
	n     *UDPNode
	sid   StreamID
	raddr *net.UDPAddr

	mu       sync.Mutex
	cond     *sync.Cond
	nextSeq  uint32
	unacked  map[uint32]*outPkt
	sc       uint32 // highest consumed seq reported by receiver
	sr       uint32 // highest in-order received seq reported
	cwnd     float64
	ssthresh float64
	srtt     time.Duration
	rttvar   time.Duration
	rto      time.Duration
	stopped  bool
	canceled bool
	closed   bool
	drainBy  time.Time // EOS emitted: when Close gives up on its acknowledgement
	blocked  time.Time // since when Send has been waiting
	lastQry  time.Time
}

// Send implements SendStream.
func (s *udpSend) Send(data []byte) error { return s.send(ptData, data) }

// Finish implements SendStream.
func (s *udpSend) Finish(data []byte) error { return s.send(ptEOS, data) }

// send emits one sequenced packet once both windows have room for it.
// The final packet waits for neither, as a bare EOS never has: the
// receiver's queue keeps a slot for it beyond the window.
func (s *udpSend) send(ptype uint8, data []byte) error {
	if len(data) > MaxPayload {
		return fmt.Errorf("interconnect: payload %d exceeds max %d", len(data), MaxPayload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	//hawqcheck:ignore ctxflow — loop re-checks s.canceled/s.stopped each pass; CancelQuery broadcasts the cond
	for {
		if s.canceled {
			return ErrCanceled
		}
		if s.stopped {
			return ErrStopped
		}
		if s.closed {
			return ErrClosed
		}
		inflight := len(s.unacked)
		unconsumed := int(s.nextSeq - 1 - s.sc)
		if ptype == ptEOS || inflight < int(s.cwnd) && unconsumed < s.n.cfg.RecvWindow {
			s.blocked = time.Time{}
			break
		}
		if s.blocked.IsZero() {
			s.blocked = s.n.clk.Now()
		}
		s.cond.Wait()
	}
	//hawqcheck:ignore lockorder — UDP datagram write under s.mu never blocks on a peer
	s.emitLocked(ptype, data)
	return nil
}

// emitLocked assigns a sequence number, stores the packet in the unacked
// queue and transmits it. Callers hold s.mu.
func (s *udpSend) emitLocked(ptype uint8, data []byte) {
	seq := s.nextSeq
	s.nextSeq++
	buf := encodePacket(header{
		Type: ptype, Query: s.sid.Query, Motion: s.sid.Motion,
		Sender: s.sid.Sender, Receiver: s.sid.Receiver, Seq: seq,
	}, data)
	p := &outPkt{seq: seq, buf: buf, sentAt: s.n.clk.Now()}
	if ptype == ptEOS {
		s.drainBy = p.sentAt.Add(s.n.cfg.DrainTimeout)
	}
	s.unacked[seq] = p
	s.n.transmit(s.raddr, buf)
}

// handleAck processes ACK/DUP packets: frees acknowledged packets from
// the expiration queue, updates RTT/RTO, grows the congestion window and
// wakes blocked senders.
func (s *udpSend) handleAck(h header) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h.SC > s.sc {
		s.sc = h.SC
	}
	if h.SR > s.sr {
		s.sr = h.SR
	}
	now := s.n.clk.Now()
	acked := 0
	for seq, p := range s.unacked {
		if seq <= h.SR {
			if p.resends == 0 {
				s.observeRTT(now.Sub(p.sentAt))
			}
			delete(s.unacked, seq)
			acked++
		}
	}
	for ; acked > 0; acked-- {
		if s.cwnd < s.ssthresh {
			s.cwnd++ // slow start
		} else {
			s.cwnd += 1 / s.cwnd // congestion avoidance
		}
	}
	s.cond.Broadcast()
}

// observeRTT updates the smoothed RTT estimate (Jacobson/Karels) used to
// compute the retransmission timeout (§4.3).
func (s *udpSend) observeRTT(rtt time.Duration) {
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		diff := s.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < rtoMin {
		s.rto = rtoMin
	}
	if s.rto > rtoMax {
		s.rto = rtoMax
	}
}

// handleOOO resends the sequences the receiver reported missing.
func (s *udpSend) handleOOO(h header, payload []byte) {
	s.mu.Lock()
	var resend [][]byte
	for i := 0; i+4 <= len(payload); i += 4 {
		seq := uint32(payload[i])<<24 | uint32(payload[i+1])<<16 | uint32(payload[i+2])<<8 | uint32(payload[i+3])
		if p, ok := s.unacked[seq]; ok {
			p.resends++
			p.sentAt = s.n.clk.Now()
			resend = append(resend, p.buf)
		}
	}
	raddr := s.raddr
	s.mu.Unlock()
	udpRetransmits.Add(int64(len(resend)))
	for _, buf := range resend {
		s.n.transmit(raddr, buf)
	}
	s.handleAck(h) // OOO carries cumulative SC/SR too
}

// handleStop transitions to the stopped state of Figure 5(a): pending
// packets are dropped and the producer sees ErrStopped.
func (s *udpSend) handleStop() {
	s.mu.Lock()
	s.stopped = true
	s.unacked = map[uint32]*outPkt{}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// tick retransmits expired packets (loss → window collapse + slow
// restart, §4.3) and sends a status query when the stream looks
// deadlocked (§4.5).
func (s *udpSend) tick(now time.Time) {
	s.mu.Lock()
	var resend [][]byte
	expired := false
	for _, p := range s.unacked {
		if now.Sub(p.sentAt) > s.rto {
			p.resends++
			p.sentAt = now
			resend = append(resend, p.buf)
			expired = true
		}
	}
	if expired {
		// Loss signal: collapse the window to the minimum and slow-start
		// back up.
		s.ssthresh = s.cwnd / 2
		if s.ssthresh < 2 {
			s.ssthresh = 2
		}
		s.cwnd = 2
		s.rto *= 2
		if s.rto > rtoMax {
			s.rto = rtoMax
		}
	}
	query := false
	if !s.blocked.IsZero() && len(s.unacked) == 0 && !s.stopped && !s.closed &&
		now.Sub(s.blocked) > queryAfter && now.Sub(s.lastQry) > queryAfter {
		// Sender is blocked on receiver capacity with nothing in flight:
		// the consumption ack may have been lost. Ask for status.
		s.lastQry = now
		query = true
	}
	raddr := s.raddr
	s.cond.Broadcast()
	s.mu.Unlock()
	udpRetransmits.Add(int64(len(resend)))
	for _, buf := range resend {
		s.n.transmit(raddr, buf)
	}
	if query {
		s.n.transmitCtl(raddr, header{
			Type: ptQuery, Query: s.sid.Query, Motion: s.sid.Motion,
			Sender: s.sid.Sender, Receiver: s.sid.Receiver,
		}, nil)
	}
}

// Close implements SendStream: emits a bare EOS unless Finish already
// sent the stream's last packet, and drains the unacked queue. The wait
// is bounded by UDPConfig.DrainTimeout from the moment the EOS left —
// streams finished together time out together — and aborted by a query
// cancel, so teardown cannot wall-block on a dead receiver.
func (s *udpSend) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if s.canceled {
		s.closed = true
		s.mu.Unlock()
		s.unregister()
		return ErrCanceled
	}
	if !s.stopped && s.drainBy.IsZero() {
		s.emitLocked(ptEOS, nil)
	}
	for len(s.unacked) > 0 && !s.stopped && !s.canceled {
		if s.n.clk.Now().After(s.drainBy) {
			s.closed = true
			s.mu.Unlock()
			s.unregister()
			return fmt.Errorf("%w: EOS unacknowledged on %s", ErrTimeout, s.sid)
		}
		s.cond.Wait()
	}
	canceled := s.canceled
	s.closed = true
	s.mu.Unlock()
	s.unregister()
	if canceled {
		return ErrCanceled
	}
	return nil
}

// cancel aborts the stream: a blocked Send (or a Close draining its
// EOS) wakes up with ErrCanceled and pending packets are dropped.
func (s *udpSend) cancel() {
	s.mu.Lock()
	s.canceled = true
	s.unacked = map[uint32]*outPkt{}
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *udpSend) shutdown() {
	s.mu.Lock()
	s.closed = true
	s.unacked = map[uint32]*outPkt{}
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *udpSend) unregister() {
	s.n.mu.Lock()
	delete(s.n.sends, s.sid)
	s.n.mu.Unlock()
}

// recvItem is one in-order packet on its way to Recv. An eos item ends
// its sender's stream, and its data, when there is any, is the stream's
// last message (hasData); a data item's payload may be empty.
type recvItem struct {
	sender SegID
	data   []byte
	eos    bool
	conn   *rcvConn
}

func (it recvItem) hasData() bool { return !it.eos || len(it.data) > 0 }

// rcvConn tracks one sender's stream at the receiver: the in-order
// cursor, the out-of-order ring and the consumption counter feeding SC.
type rcvConn struct {
	sender   SegID
	expected uint32              // next in-order seq
	pending  map[uint32]recvItem // buffered out-of-order packets; made on the first gap
	consumed uint32              // SC: highest seq handed to the executor
	done     bool
}

// udpRecv is the receiving side of one motion on this node, merging all
// sender streams. A separate channel per stream pair is modeled by the
// per-sender rcvConn (avoiding the §4.2 deadlock), with a single fan-in
// queue that grows with what arrives, up to every sender's window.
type udpRecv struct {
	n     *UDPNode
	key   motionKey
	mu    sync.Mutex
	conns map[SegID]*rcvConn
	// queue[head:] are the delivered, unread items, oldest first; wake
	// holds a token whenever Recv (one goroutine) may find one.
	queue    []recvItem
	head     int
	wake     chan struct{}
	left     int // senders that have not delivered EOS
	cancel   chan struct{}
	canceled bool
	stopped  bool
	closed   bool
}

// handlePacket runs on the node's receive goroutine, and in OpenRecv for
// the replay of early arrivals: those were acknowledged when they were
// buffered, so a replayed packet is answered again only if it tells the
// sender something new.
func (r *udpRecv) handlePacket(h header, payload []byte, raddr *net.UDPAddr, replay bool) {
	r.mu.Lock()
	c := r.conns[h.Sender]
	if c == nil || r.closed {
		r.mu.Unlock()
		return
	}
	if r.stopped {
		// The STOP may have been lost; repeat it for every packet the
		// stopped sender still transmits (Figure 5's Stop-sent state is
		// left only when the sender goes quiet).
		r.mu.Unlock()
		r.n.transmitCtl(raddr, header{
			Type: ptStop, Query: r.key.Query, Motion: r.key.Motion,
			Sender: h.Sender, Receiver: r.key.Receiver,
		}, nil)
		return
	}
	if h.Type == ptQuery {
		sc, sr := c.consumed, c.expected-1
		r.mu.Unlock()
		r.sendAck(ptAck, h.Sender, sc, sr, nil, raddr)
		return
	}
	item := recvItem{sender: c.sender, data: payload, eos: h.Type == ptEOS, conn: c}
	switch {
	case h.Seq < c.expected:
		// Duplicate: answer with a cumulative ack so the sender clears
		// its expiration queue (§4.4).
		sc, sr := c.consumed, c.expected-1
		r.mu.Unlock()
		r.sendAck(ptDup, h.Sender, sc, sr, nil, raddr)
		return
	case h.Seq == c.expected:
		r.deliverLocked(item)
		c.expected++
		// Drain buffered successors.
		//hawqcheck:ignore ctxflow — drains a bounded pending ring; no waits inside
		for {
			next, ok := c.pending[c.expected]
			if !ok {
				break
			}
			delete(c.pending, c.expected)
			r.deliverLocked(next)
			c.expected++
		}
		sc, sr := c.consumed, c.expected-1
		r.mu.Unlock()
		if !replay || sr > h.Seq {
			r.sendAck(ptAck, h.Sender, sc, sr, nil, raddr)
		}
		return
	default:
		// Gap: buffer within a bounded ring and report what is missing.
		if int(h.Seq-c.expected) < 4*r.n.cfg.RecvWindow {
			if c.pending == nil {
				c.pending = map[uint32]recvItem{}
			}
			if _, dup := c.pending[h.Seq]; !dup {
				c.pending[h.Seq] = item // recvLoop made the payload ours
			}
		}
		var missing []byte
		for seq := c.expected; seq < h.Seq && len(missing) < 4*maxMissing; seq++ {
			if _, buffered := c.pending[seq]; !buffered {
				missing = append(missing, byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq))
			}
		}
		sc, sr := c.consumed, c.expected-1
		r.mu.Unlock()
		r.sendAck(ptOOO, h.Sender, sc, sr, missing, raddr)
		return
	}
}

// deliverLocked queues an in-order packet for Recv. Callers hold r.mu.
func (r *udpRecv) deliverLocked(it recvItem) {
	c := it.conn
	if c.done {
		return
	}
	c.done = it.eos
	if r.stopped && !it.eos {
		// After Stop we discard data but keep consuming so acks flow.
		c.consumed++
		return
	}
	if len(r.queue)-r.head > (r.n.cfg.RecvWindow+1)*len(r.conns) {
		// Flow control holds every sender to its window plus the final
		// packet, so this is a protocol accounting bug, not backpressure.
		panic("interconnect: receive queue overflow")
	}
	if len(r.queue) == cap(r.queue) && 2*r.head >= len(r.queue) {
		// Full, and at least half of it read: reuse the front, not grow.
		n := copy(r.queue, r.queue[r.head:])
		clear(r.queue[n:])
		r.queue, r.head = r.queue[:n], 0
	}
	r.queue = append(r.queue, it)
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

func (r *udpRecv) sendAck(ptype uint8, sender SegID, sc, sr uint32, missing []byte, raddr *net.UDPAddr) {
	r.n.transmitCtl(raddr, header{
		Type: ptype, Query: r.key.Query, Motion: r.key.Motion,
		Sender: sender, Receiver: r.key.Receiver, SC: sc, SR: sr,
	}, missing)
}

// Recv implements RecvStream.
func (r *udpRecv) Recv() (RecvItem, bool, error) {
	for {
		r.mu.Lock()
		switch {
		case r.closed:
			// Node shutdown, e.g. a killed segment.
			r.mu.Unlock()
			return RecvItem{}, false, ErrClosed
		case r.left == 0 || r.stopped:
			r.mu.Unlock()
			return RecvItem{}, true, nil
		case r.canceled:
			r.mu.Unlock()
			return RecvItem{}, false, ErrCanceled
		case r.head == len(r.queue):
			r.mu.Unlock()
			select {
			case <-r.wake:
			case <-r.cancel:
			}
			continue
		}
		item := r.queue[r.head]
		r.queue[r.head] = recvItem{}
		r.head++
		if item.eos {
			// Counted here, seen by the next pass: a final packet's
			// payload is delivered before its end-of-stream.
			r.left--
		}
		if item.hasData() {
			// Advance SC for the sender's flow control.
			item.conn.consumed++
		}
		r.mu.Unlock()
		if item.hasData() {
			return RecvItem{Sender: item.sender, Data: item.data}, false, nil
		}
	}
}

// Stop implements RecvStream: broadcast STOP to all senders (Figure 5(b)).
func (r *udpRecv) Stop() {
	r.mu.Lock()
	if r.stopped || r.closed {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	senders := make([]SegID, 0, len(r.conns))
	for s := range r.conns {
		senders = append(senders, s)
	}
	r.mu.Unlock()
	for _, s := range senders {
		if raddr, ok := r.n.book.UDP(s); ok {
			r.n.transmitCtl(raddr, header{
				Type: ptStop, Query: r.key.Query, Motion: r.key.Motion,
				Sender: s, Receiver: r.key.Receiver,
			}, nil)
		}
	}
}

// doCancel aborts a blocked Recv.
func (r *udpRecv) doCancel() {
	r.mu.Lock()
	if !r.canceled {
		r.canceled = true
		close(r.cancel)
	}
	r.mu.Unlock()
}

// CancelQuery implements Node: it aborts both halves of every stream of
// the query — blocked Recvs return ErrCanceled, and blocked Sends (or
// EOS drains) on this node wake with ErrCanceled too, so a sliced plan
// tears down from either end.
func (n *UDPNode) CancelQuery(query uint64) {
	n.mu.Lock()
	if !n.closed {
		// Remember the cancellation so streams the query opens later (QE
		// startup racing the cancel) are born canceled; timerLoop expires
		// the tombstone.
		n.canceled[query] = n.clk.Now()
	}
	for key := range n.early {
		if key.Query == query {
			delete(n.early, key)
		}
	}
	var victims []*udpRecv
	for key, r := range n.recvs {
		if key.Query == query {
			victims = append(victims, r)
		}
	}
	var sends []*udpSend
	for sid, s := range n.sends {
		if sid.Query == query {
			sends = append(sends, s)
		}
	}
	n.mu.Unlock()
	for _, r := range victims {
		r.doCancel()
	}
	for _, s := range sends {
		s.cancel()
	}
}

// Close implements RecvStream. It also wakes any Recv blocked in its
// select — a killed node closes every stream from a different
// goroutine than the one pulling rows, and without the wake that
// reader would sleep forever (no packet, no cancel) even though the
// stream is gone.
func (r *udpRecv) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	if !r.canceled {
		r.canceled = true
		close(r.cancel)
	}
	r.mu.Unlock()
	r.n.mu.Lock()
	delete(r.n.recvs, r.key)
	if !r.n.closed {
		r.n.ended[r.key] = r.n.clk.Now()
	}
	r.n.mu.Unlock()
}
