package interconnect

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hawq/internal/clock"
)

// buildUDP creates n segment nodes (0..n-1) plus a QD node.
func buildUDP(t testing.TB, n int, cfg UDPConfig) (*AddrBook, map[SegID]Node) {
	t.Helper()
	book := NewAddrBook()
	nodes := map[SegID]Node{}
	ids := []SegID{QDSeg}
	for i := 0; i < n; i++ {
		ids = append(ids, SegID(i))
	}
	for _, id := range ids {
		node, err := NewUDPNode(id, book, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return book, nodes
}

func buildTCP(t testing.TB, n int) (*AddrBook, map[SegID]Node) {
	t.Helper()
	book := NewAddrBook()
	nodes := map[SegID]Node{}
	ids := []SegID{QDSeg}
	for i := 0; i < n; i++ {
		ids = append(ids, SegID(i))
	}
	for _, id := range ids {
		node, err := NewTCPNode(id, book, TCPConfig{})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return book, nodes
}

// runFanIn sends per-sender numbered messages from every segment to the
// QD and verifies per-sender ordering and completeness.
func runFanIn(t *testing.T, nodes map[SegID]Node, senders, msgs int) {
	t.Helper()
	const query, motion = 42, 1
	senderIDs := make([]SegID, senders)
	for i := range senderIDs {
		senderIDs[i] = SegID(i)
	}
	recv, err := nodes[QDSeg].OpenRecv(query, motion, senderIDs)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for _, sid := range senderIDs {
		wg.Add(1)
		go func(sid SegID) {
			defer wg.Done()
			s, err := nodes[sid].OpenSend(StreamID{Query: query, Motion: motion, Sender: sid, Receiver: QDSeg})
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < msgs; i++ {
				if err := s.Send([]byte(fmt.Sprintf("%d:%d", sid, i))); err != nil {
					errs <- err
					return
				}
			}
			errs <- s.Close()
		}(sid)
	}

	next := map[SegID]int{}
	total := 0
	for {
		item, done, err := recv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		want := fmt.Sprintf("%d:%d", item.Sender, next[item.Sender])
		if string(item.Data) != want {
			t.Fatalf("out of order: got %q, want %q", item.Data, want)
		}
		next[item.Sender]++
		total++
	}
	if total != senders*msgs {
		t.Fatalf("received %d messages, want %d", total, senders*msgs)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestUDPFanIn(t *testing.T) {
	_, nodes := buildUDP(t, 4, UDPConfig{})
	runFanIn(t, nodes, 4, 500)
}

func TestUDPFanInUnderPacketLoss(t *testing.T) {
	// 10% injected loss on every outgoing packet (data AND acks): the
	// retransmission, ordering and duplicate machinery must hide it.
	_, nodes := buildUDP(t, 3, UDPConfig{LossRate: 0.10, Seed: 99})
	runFanIn(t, nodes, 3, 300)
}

func TestUDPHeavyLossStillDelivers(t *testing.T) {
	if testing.Short() {
		t.Skip("slow under heavy loss")
	}
	_, nodes := buildUDP(t, 2, UDPConfig{LossRate: 0.30, Seed: 7})
	runFanIn(t, nodes, 2, 100)
}

func TestTCPFanIn(t *testing.T) {
	_, nodes := buildTCP(t, 4)
	runFanIn(t, nodes, 4, 500)
}

func TestUDPSenderBeforeReceiver(t *testing.T) {
	// The sender starts before the receiver registers; retransmission
	// bridges the gap.
	_, nodes := buildUDP(t, 1, UDPConfig{})
	s, err := nodes[0].OpenSend(StreamID{Query: 7, Motion: 2, Sender: 0, Receiver: QDSeg})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 10; i++ {
			s.Send([]byte{byte(i)})
		}
		s.Close()
	}()
	time.Sleep(30 * time.Millisecond) // sender is already transmitting
	recv, err := nodes[QDSeg].OpenRecv(7, 2, []SegID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	got := 0
	for {
		item, done, err := recv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if item.Data[0] != byte(got) {
			t.Fatalf("message %d has payload %d", got, item.Data[0])
		}
		got++
	}
	if got != 10 {
		t.Fatalf("got %d messages", got)
	}
}

// An early sender must not depend on the retransmission timer: on a
// simulated clock no timer fires unless the test advances it, so the
// sender can only finish if the receiving node buffers and acknowledges
// packets that beat OpenRecv — the final one with its payload, when
// Finish gave it one.
func TestUDPEarlyArrivalIsBufferedAndAcked(t *testing.T) {
	for _, finish := range []bool{false, true} {
		t.Run(fmt.Sprintf("finish=%v", finish), func(t *testing.T) {
			sim := clock.NewSim(time.Unix(0, 0))
			_, nodes := buildUDP(t, 1, UDPConfig{Clock: sim})
			before, sent := udpRetransmits.Value(), udpPacketsSent.Value()
			s, err := nodes[0].OpenSend(StreamID{Query: 8, Motion: 3, Sender: 0, Receiver: QDSeg})
			if err != nil {
				t.Fatal(err)
			}
			window := 4 // udpSend's initial cwnd
			for i := 0; i < window; i++ {
				if err := s.Send([]byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if finish {
				if err := s.Finish([]byte{byte(window)}); err != nil {
					t.Fatal(err)
				}
				window++
			}
			if err := s.Close(); err != nil {
				t.Fatalf("close before the receiver opened: %v", err)
			}
			sim.Advance(50 * time.Millisecond) // far past rtoInit
			recv, err := nodes[QDSeg].OpenRecv(8, 3, []SegID{0})
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			for want := 0; ; want++ {
				item, done, err := recv.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if done {
					if want != window {
						t.Fatalf("got %d payloads, want %d", want, window)
					}
					break
				}
				if len(item.Data) != 1 || item.Data[0] != byte(want) {
					t.Fatalf("payload %d = %v", want, item.Data)
				}
			}
			if d := udpRetransmits.Value() - before; d != 0 {
				t.Errorf("interconnect.udp_retransmits grew by %d, want 0", d)
			}
			// Four data packets and the final one, each acknowledged when it
			// was buffered and not a second time when it was replayed.
			if d := udpPacketsSent.Value() - sent; d != 10 {
				t.Errorf("interconnect.udp_packets_sent grew by %d, want 10", d)
			}
		})
	}
}

// A canceled query's early arrivals are discarded, and a buffer whose
// senders went quiet expires into a cancellation tombstone, so the
// receiver fails cleanly instead of waiting for acknowledged data that
// is gone.
func TestUDPEarlyArrivalDiscardAndExpiry(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	_, nodes := buildUDP(t, 1, UDPConfig{Clock: sim})
	qd := nodes[QDSeg].(*UDPNode)
	buffered := func() int {
		qd.mu.Lock()
		defer qd.mu.Unlock()
		return len(qd.early)
	}
	for _, query := range []uint64{11, 12} {
		s, err := nodes[0].OpenSend(StreamID{Query: query, Motion: 1, Sender: 0, Receiver: QDSeg})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := buffered(); got != 2 {
		t.Fatalf("early buffers = %d, want 2", got)
	}
	qd.CancelQuery(11)
	if got := buffered(); got != 1 {
		t.Fatalf("early buffers after cancel = %d, want 1", got)
	}
	deadline := time.Now().Add(10 * time.Second)
	for buffered() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("quiet early buffer never expired")
		}
		sim.Advance(30 * time.Second)
		time.Sleep(time.Millisecond) // let timerLoop take the tick
	}
	recv, err := qd.OpenRecv(12, 1, []SegID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	if _, _, err := recv.Recv(); err != ErrCanceled {
		t.Fatalf("Recv after expiry = %v, want ErrCanceled", err)
	}
}

func TestTCPSenderBeforeReceiver(t *testing.T) {
	_, nodes := buildTCP(t, 1)
	s, err := nodes[0].OpenSend(StreamID{Query: 7, Motion: 2, Sender: 0, Receiver: QDSeg})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		s.Send([]byte("hello"))
		s.Close()
	}()
	time.Sleep(30 * time.Millisecond)
	recv, err := nodes[QDSeg].OpenRecv(7, 2, []SegID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	item, done, err := recv.Recv()
	if err != nil || done || string(item.Data) != "hello" {
		t.Fatalf("item=%v done=%v err=%v", item, done, err)
	}
	if _, done, _ := recv.Recv(); !done {
		t.Fatal("missing EOS")
	}
}

// stopTest exercises the STOP state machine (LIMIT queries): the receiver
// stops mid-stream and the senders observe ErrStopped promptly.
func stopTest(t *testing.T, nodes map[SegID]Node) {
	t.Helper()
	const query, motion = 11, 3
	recv, err := nodes[QDSeg].OpenRecv(query, motion, []SegID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	stopSeen := make(chan struct{}, 2)
	for seg := SegID(0); seg < 2; seg++ {
		go func(seg SegID) {
			s, err := nodes[seg].OpenSend(StreamID{Query: query, Motion: motion, Sender: seg, Receiver: QDSeg})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; ; i++ {
				if err := s.Send([]byte("payload")); err == ErrStopped {
					stopSeen <- struct{}{}
					s.Close()
					return
				} else if err != nil {
					t.Error(err)
					return
				}
			}
		}(seg)
	}
	// Take a few messages, then stop.
	for i := 0; i < 5; i++ {
		if _, done, err := recv.Recv(); err != nil || done {
			t.Fatalf("recv %d: done=%v err=%v", i, done, err)
		}
	}
	recv.Stop()
	for i := 0; i < 2; i++ {
		select {
		case <-stopSeen:
		case <-time.After(5 * time.Second):
			t.Fatal("sender did not observe STOP")
		}
	}
	if _, done, err := recv.Recv(); !done || err != nil {
		t.Fatalf("post-stop recv: done=%v err=%v", done, err)
	}
}

func TestUDPStop(t *testing.T) {
	_, nodes := buildUDP(t, 2, UDPConfig{})
	stopTest(t, nodes)
}

func TestUDPStopUnderLoss(t *testing.T) {
	_, nodes := buildUDP(t, 2, UDPConfig{LossRate: 0.15, Seed: 3})
	stopTest(t, nodes)
}

func TestTCPStop(t *testing.T) {
	_, nodes := buildTCP(t, 2)
	stopTest(t, nodes)
}

func TestUDPFlowControlBoundsInflight(t *testing.T) {
	// A slow receiver must throttle the sender via SC capacity: the
	// sender cannot race ahead more than the receive window.
	_, nodes := buildUDP(t, 1, UDPConfig{RecvWindow: 8})
	recv, err := nodes[QDSeg].OpenRecv(1, 1, []SegID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	s, err := nodes[0].OpenSend(StreamID{Query: 1, Motion: 1, Sender: 0, Receiver: QDSeg})
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan int, 1)
	go func() {
		n := 0
		for n < 100 {
			if err := s.Send([]byte{byte(n)}); err != nil {
				break
			}
			n++
		}
		s.Close()
		sent <- n
	}()
	// Consume nothing for a while; the sender must be blocked well below
	// 100 messages.
	time.Sleep(200 * time.Millisecond)
	select {
	case n := <-sent:
		t.Fatalf("sender finished %d sends against a stalled receiver", n)
	default:
	}
	// Now drain; everything must arrive in order.
	for i := 0; i < 100; i++ {
		item, done, err := recv.Recv()
		if err != nil || done {
			t.Fatalf("recv %d: done=%v err=%v", i, done, err)
		}
		if item.Data[0] != byte(i) {
			t.Fatalf("message %d = %d", i, item.Data[0])
		}
	}
	if _, done, _ := recv.Recv(); !done {
		t.Fatal("missing EOS")
	}
	if n := <-sent; n != 100 {
		t.Fatalf("sender completed %d sends", n)
	}
}

func TestUDPDeadlockEliminationViaStatusQuery(t *testing.T) {
	// Heavy ack loss with a tiny window: the scenario of §4.5 where all
	// consumption acks vanish. The status-query mechanism must keep the
	// stream alive.
	_, nodes := buildUDP(t, 1, UDPConfig{RecvWindow: 2, LossRate: 0.4, Seed: 1234})
	recv, err := nodes[QDSeg].OpenRecv(5, 1, []SegID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	s, err := nodes[0].OpenSend(StreamID{Query: 5, Motion: 1, Sender: 0, Receiver: QDSeg})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 50; i++ {
			s.Send([]byte{byte(i)})
		}
		s.Close()
	}()
	deadline := time.After(30 * time.Second)
	for i := 0; i < 50; i++ {
		type res struct {
			item RecvItem
			done bool
			err  error
		}
		ch := make(chan res, 1)
		go func() {
			it, done, err := recv.Recv()
			ch <- res{it, done, err}
		}()
		select {
		case r := <-ch:
			if r.err != nil || r.done {
				t.Fatalf("recv %d: done=%v err=%v", i, r.done, r.err)
			}
			if r.item.Data[0] != byte(i) {
				t.Fatalf("message %d = %d", i, r.item.Data[0])
			}
		case <-deadline:
			t.Fatal("stream deadlocked despite status-query mechanism")
		}
	}
}

func TestUDPConcurrentQueriesMultiplexOneSocket(t *testing.T) {
	// Multiple queries and motions share each node's single socket.
	_, nodes := buildUDP(t, 2, UDPConfig{})
	var wg sync.WaitGroup
	for q := uint64(1); q <= 4; q++ {
		wg.Add(1)
		go func(q uint64) {
			defer wg.Done()
			recv, err := nodes[QDSeg].OpenRecv(q, 1, []SegID{0, 1})
			if err != nil {
				t.Error(err)
				return
			}
			defer recv.Close()
			for seg := SegID(0); seg < 2; seg++ {
				go func(seg SegID) {
					s, err := nodes[seg].OpenSend(StreamID{Query: q, Motion: 1, Sender: seg, Receiver: QDSeg})
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < 50; i++ {
						s.Send([]byte{byte(q), byte(i)})
					}
					s.Close()
				}(seg)
			}
			n := 0
			for {
				item, done, err := recv.Recv()
				if err != nil {
					t.Error(err)
					return
				}
				if done {
					break
				}
				if item.Data[0] != byte(q) {
					t.Errorf("query %d got payload for query %d", q, item.Data[0])
					return
				}
				n++
			}
			if n != 100 {
				t.Errorf("query %d received %d", q, n)
			}
		}(q)
	}
	wg.Wait()
}

func TestStragglerSenderGetsStopped(t *testing.T) {
	// A sender that keeps transmitting after the receiver closed must be
	// told to stop (the "ended" tombstone path).
	_, nodes := buildUDP(t, 1, UDPConfig{})
	recv, err := nodes[QDSeg].OpenRecv(9, 1, []SegID{0})
	if err != nil {
		t.Fatal(err)
	}
	recv.Close()
	s, err := nodes[0].OpenSend(StreamID{Query: 9, Motion: 1, Sender: 0, Receiver: QDSeg})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := s.Send([]byte("x"))
		if err == ErrStopped {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("straggler was never stopped")
		}
	}
}

func TestPacketEncodeDecode(t *testing.T) {
	h := header{Type: ptData, Query: 123456789, Motion: -3, Sender: 17, Receiver: QDSeg, Seq: 42, SC: 7, SR: 9}
	buf := encodePacket(h, []byte("payload"))
	got, payload, err := decodePacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h || string(payload) != "payload" {
		t.Fatalf("round trip: %+v %q", got, payload)
	}
	if _, _, err := decodePacket(buf[:10]); err == nil {
		t.Error("short packet accepted")
	}
	buf[0] = 0
	if _, _, err := decodePacket(buf); err == nil {
		t.Error("bad magic accepted")
	}
}

func benchInterconnect(b *testing.B, nodes map[SegID]Node, payload int) {
	recv, err := nodes[QDSeg].OpenRecv(1, 1, []SegID{0})
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	s, err := nodes[0].OpenSend(StreamID{Query: 1, Motion: 1, Sender: 0, Receiver: QDSeg})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, payload)
	b.SetBytes(int64(payload))
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			s.Send(data)
		}
		s.Close()
	}()
	for {
		_, done, err := recv.Recv()
		if err != nil {
			b.Fatal(err)
		}
		if done {
			break
		}
	}
}

func BenchmarkUDPInterconnectThroughput(b *testing.B) {
	_, nodes := buildUDP(b, 1, UDPConfig{})
	benchInterconnect(b, nodes, 4096)
}

func BenchmarkTCPInterconnectThroughput(b *testing.B) {
	_, nodes := buildTCP(b, 1)
	benchInterconnect(b, nodes, 4096)
}

// Property: the packet header codec is the identity for every field
// combination.
func TestQuickPacketHeaderRoundTrip(t *testing.T) {
	f := func(typ uint8, query uint64, motion int16, sender, receiver int16, seq, sc, sr uint32, payload []byte) bool {
		h := header{
			Type: typ, Query: query, Motion: motion,
			Sender: SegID(sender), Receiver: SegID(receiver),
			Seq: seq, SC: sc, SR: sr,
		}
		buf := encodePacket(h, payload)
		got, p, err := decodePacket(buf)
		return err == nil && got == h && string(p) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
