package interconnect

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hawq/internal/clock"
)

// drain reads a receive stream to its end and returns the payloads in
// arrival order, as strings.
func drain(t *testing.T, recv RecvStream) []string {
	t.Helper()
	var got []string
	for {
		item, done, err := recv.Recv()
		if err != nil {
			t.Fatalf("after %q: %v", got, err)
		}
		if done {
			return got
		}
		got = append(got, string(item.Data))
	}
}

func wantPayloads(t *testing.T, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("received %q, want %q", got, want)
	}
}

// finishFanIn is runFanIn with the last message of every sender riding
// its end-of-stream.
func finishFanIn(t *testing.T, nodes map[SegID]Node, senders, msgs int) {
	t.Helper()
	const query, motion = 43, 1
	ids := make([]SegID, senders)
	for i := range ids {
		ids[i] = SegID(i)
	}
	recv, err := nodes[QDSeg].OpenRecv(query, motion, ids)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	errs := make(chan error, senders)
	for _, sid := range ids {
		go func(sid SegID) {
			s, err := nodes[sid].OpenSend(StreamID{Query: query, Motion: motion, Sender: sid, Receiver: QDSeg})
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < msgs-1 && err == nil; i++ {
				err = s.Send([]byte(fmt.Sprintf("%d:%d", sid, i)))
			}
			if err == nil {
				err = s.Finish([]byte(fmt.Sprintf("%d:%d", sid, msgs-1)))
			}
			if err == nil {
				err = s.Close()
			}
			errs <- err
		}(sid)
	}
	next := map[SegID]int{}
	for {
		item, done, err := recv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if want := fmt.Sprintf("%d:%d", item.Sender, next[item.Sender]); string(item.Data) != want {
			t.Fatalf("got %q, want %q", item.Data, want)
		}
		next[item.Sender]++
	}
	for _, sid := range ids {
		if next[sid] != msgs {
			t.Errorf("sender %d delivered %d messages, want %d", sid, next[sid], msgs)
		}
	}
	for range ids {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestUDPFinishFanIn(t *testing.T) {
	_, nodes := buildUDP(t, 4, UDPConfig{})
	finishFanIn(t, nodes, 4, 200)
}

func TestUDPFinishFanInUnderPacketLoss(t *testing.T) {
	_, nodes := buildUDP(t, 3, UDPConfig{LossRate: 0.10, Seed: 99})
	finishFanIn(t, nodes, 3, 200)
}

func TestTCPFinishFanIn(t *testing.T) {
	_, nodes := buildTCP(t, 4)
	finishFanIn(t, nodes, 4, 200)
}

// A stream whose only packet is its final one: one payload, then the end.
// On UDP that is two datagrams — the packet and its acknowledgement —
// where Send + Close is four, as it has always been.
func TestFinishIsTheOnlyPacket(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() map[SegID]Node
		udp   bool
	}{
		{"udp", func() map[SegID]Node { _, n := buildUDP(t, 1, UDPConfig{}); return n }, true},
		{"tcp", func() map[SegID]Node { _, n := buildTCP(t, 1); return n }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := tc.build()
			for q, finish := range []bool{true, false} {
				recv, err := nodes[QDSeg].OpenRecv(uint64(q), 1, []SegID{0})
				if err != nil {
					t.Fatal(err)
				}
				before, resent := udpPacketsSent.Value(), udpRetransmits.Value()
				s, err := nodes[0].OpenSend(StreamID{Query: uint64(q), Motion: 1, Sender: 0, Receiver: QDSeg})
				if err != nil {
					t.Fatal(err)
				}
				want := int64(2)
				if finish {
					err = s.Finish([]byte("only"))
				} else {
					err, want = s.Send([]byte("only")), 4
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				wantPayloads(t, drain(t, recv), "only")
				recv.Close()
				if got := udpPacketsSent.Value() - before; tc.udp && got != want {
					t.Errorf("finish=%v: %d datagrams, want %d", finish, got, want)
				}
				if got := udpRetransmits.Value() - resent; got != 0 {
					t.Errorf("finish=%v: %d retransmits", finish, got)
				}
			}
		})
	}
}

// An empty Finish is a bare end-of-stream: no message is delivered for it.
func TestFinishWithoutPayload(t *testing.T) {
	for name, nodes := range map[string]map[SegID]Node{
		"udp": func() map[SegID]Node { _, n := buildUDP(t, 1, UDPConfig{}); return n }(),
		"tcp": func() map[SegID]Node { _, n := buildTCP(t, 1); return n }(),
	} {
		recv, err := nodes[QDSeg].OpenRecv(1, 1, []SegID{0})
		if err != nil {
			t.Fatal(err)
		}
		s, err := nodes[0].OpenSend(StreamID{Query: 1, Motion: 1, Sender: 0, Receiver: QDSeg})
		if err != nil {
			t.Fatal(err)
		}
		for _, err := range []error{s.Send([]byte("a")), s.Send(nil), s.Finish(nil), s.Close()} {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		// The empty Send is a message; the empty Finish is not.
		wantPayloads(t, drain(t, recv), "a", "")
		recv.Close()
	}
}

// The final packet is the one the network drops: retransmission delivers
// it, once, after everything before it.
func TestUDPFinalPacketLost(t *testing.T) {
	_, nodes := buildUDP(t, 1, UDPConfig{})
	sender := nodes[0].(*UDPNode)
	recv, err := nodes[QDSeg].OpenRecv(1, 1, []SegID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	s, err := sender.OpenSend(StreamID{Query: 1, Motion: 1, Sender: 0, Receiver: QDSeg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send([]byte("first")); err != nil {
		t.Fatal(err)
	}
	resent := udpRetransmits.Value()
	sender.SetLossRate(1)
	if err := s.Finish([]byte("last")); err != nil {
		t.Fatal(err)
	}
	sender.SetLossRate(0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantPayloads(t, drain(t, recv), "first", "last")
	if udpRetransmits.Value() == resent {
		t.Error("the dropped final packet was delivered without a retransmission")
	}
}

// The final packet's acknowledgement is lost, so the sender repeats the
// packet: the receiver answers the duplicate (DUP) and delivers the
// payload once.
func TestUDPFinalPacketDuplicated(t *testing.T) {
	_, nodes := buildUDP(t, 1, UDPConfig{})
	qd := nodes[QDSeg].(*UDPNode)
	recv, err := qd.OpenRecv(1, 1, []SegID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	s, err := nodes[0].OpenSend(StreamID{Query: 1, Motion: 1, Sender: 0, Receiver: QDSeg})
	if err != nil {
		t.Fatal(err)
	}
	qd.SetLossRate(1) // the receiver hears everything and answers nothing
	resent := udpRetransmits.Value()
	if err := s.Finish([]byte("last")); err != nil {
		t.Fatal(err)
	}
	wantPayloads(t, drain(t, recv), "last")
	deadline := time.Now().Add(10 * time.Second)
	for udpRetransmits.Value() < resent+2 {
		if time.Now().After(deadline) {
			t.Fatal("the unacknowledged final packet was not retransmitted")
		}
		time.Sleep(time.Millisecond)
	}
	qd.SetLossRate(0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := recv.(*udpRecv)
	r.mu.Lock()
	queued, left := len(r.queue)-r.head, r.left
	r.mu.Unlock()
	if queued != 0 || left != 0 {
		t.Fatalf("after duplicates: %d items queued, %d senders left; want 0, 0", queued, left)
	}
}

// The final packet overtakes the data before it: it waits in the
// out-of-order ring, payload and end-of-stream together, and is
// delivered after the gap is filled — whichever copy of it comes first.
func TestUDPFinalPacketReordered(t *testing.T) {
	book, nodes := buildUDP(t, 1, UDPConfig{})
	recv, err := nodes[QDSeg].OpenRecv(1, 1, []SegID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	r := recv.(*udpRecv)
	raddr, _ := book.UDP(0)
	pkt := func(typ uint8, seq uint32, payload string) {
		r.handlePacket(header{Type: typ, Query: 1, Motion: 1, Sender: 0, Receiver: QDSeg, Seq: seq}, []byte(payload), raddr, false)
	}
	pkt(ptEOS, 3, "c")
	pkt(ptEOS, 3, "c") // a second copy while the first is parked
	pkt(ptData, 2, "b")
	r.mu.Lock()
	queued := len(r.queue) - r.head
	r.mu.Unlock()
	if queued != 0 {
		t.Fatalf("%d items delivered across a gap", queued)
	}
	pkt(ptData, 1, "a")
	pkt(ptEOS, 3, "c") // and a third after delivery
	wantPayloads(t, drain(t, recv), "a", "b", "c")
}

// stopFinishTest has the receiver stop while its senders are on their
// way to Finish: every sender ends promptly, stopped or acknowledged,
// and the receiver is done.
func stopFinishTest(t *testing.T, nodes map[SegID]Node) {
	t.Helper()
	const query, motion = 12, 3
	recv, err := nodes[QDSeg].OpenRecv(query, motion, []SegID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	ended := make(chan error, 2)
	for seg := SegID(0); seg < 2; seg++ {
		go func(seg SegID) {
			s, err := nodes[seg].OpenSend(StreamID{Query: query, Motion: motion, Sender: seg, Receiver: QDSeg})
			for i := 0; i < 20 && err == nil; i++ {
				err = s.Send([]byte("payload"))
			}
			if err == nil {
				err = s.Finish([]byte("last"))
			}
			if err == nil || err == ErrStopped {
				err = s.Close()
			}
			ended <- err
		}(seg)
	}
	for i := 0; i < 5; i++ {
		if _, done, err := recv.Recv(); err != nil || done {
			t.Fatalf("recv %d: done=%v err=%v", i, done, err)
		}
	}
	recv.Stop()
	for i := 0; i < 2; i++ {
		select {
		case err := <-ended:
			if err != nil {
				t.Errorf("sender ended with %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a sender is stuck between Finish and a receiver's Stop")
		}
	}
	if _, done, err := recv.Recv(); !done || err != nil {
		t.Fatalf("post-stop recv: done=%v err=%v", done, err)
	}
}

func TestUDPStopRacesFinish(t *testing.T) {
	_, nodes := buildUDP(t, 2, UDPConfig{})
	stopFinishTest(t, nodes)
}

func TestUDPStopRacesFinishUnderLoss(t *testing.T) {
	_, nodes := buildUDP(t, 2, UDPConfig{LossRate: 0.15, Seed: 3})
	stopFinishTest(t, nodes)
}

func TestTCPStopRacesFinish(t *testing.T) {
	_, nodes := buildTCP(t, 2)
	stopFinishTest(t, nodes)
}

// After STOP a final packet is discarded and still answered: the sender
// that never heard the STOP hears it now, and its Close returns.
func TestUDPFinishAfterLostStop(t *testing.T) {
	_, nodes := buildUDP(t, 1, UDPConfig{})
	qd := nodes[QDSeg].(*UDPNode)
	recv, err := qd.OpenRecv(1, 1, []SegID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	s, err := nodes[0].OpenSend(StreamID{Query: 1, Motion: 1, Sender: 0, Receiver: QDSeg})
	if err != nil {
		t.Fatal(err)
	}
	qd.SetLossRate(1)
	recv.Stop() // the STOP is lost
	qd.SetLossRate(0)
	if err := s.Finish([]byte("unwanted")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, recv); len(got) != 0 {
		t.Fatalf("a stopped receiver delivered %q", got)
	}
}

// cancelFinishTest cancels the query the way the dispatcher does, node
// after node and in either order, while a finished stream waits in
// Close: both ends return promptly, and the payload is seen at most once.
func cancelFinishTest(t *testing.T, build func(t *testing.T) map[SegID]Node) {
	t.Helper()
	for _, order := range [][]SegID{{0, QDSeg}, {QDSeg, 0}} {
		for round := uint64(0); round < 20; round++ {
			nodes := build(t)
			recv, err := nodes[QDSeg].OpenRecv(round, 1, []SegID{0})
			if err != nil {
				t.Fatal(err)
			}
			s, err := nodes[0].OpenSend(StreamID{Query: round, Motion: 1, Sender: 0, Receiver: QDSeg})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				err := s.Finish([]byte("last"))
				if err == nil {
					err = s.Close()
				}
				if err != nil && err != ErrCanceled {
					t.Errorf("sender: %v", err)
				}
			}()
			go func() {
				defer wg.Done()
				seen := 0
				for {
					item, done, err := recv.Recv()
					if err != nil {
						if err != ErrCanceled && err != ErrClosed {
							t.Errorf("receiver: %v", err)
						}
						return
					}
					if done {
						return
					}
					if seen++; seen > 1 || string(item.Data) != "last" {
						t.Errorf("delivery %d is %q", seen, item.Data)
						return
					}
				}
			}()
			for _, at := range order {
				nodes[at].CancelQuery(round)
			}
			ended := make(chan struct{})
			go func() { wg.Wait(); close(ended) }()
			select {
			case <-ended:
			case <-time.After(10 * time.Second):
				t.Fatal("CancelQuery left a finished stream waiting")
			}
			recv.Close()
			for _, n := range nodes {
				n.Close()
			}
		}
	}
}

func TestUDPCancelRacesFinish(t *testing.T) {
	cancelFinishTest(t, func(t *testing.T) map[SegID]Node { _, n := buildUDP(t, 1, UDPConfig{}); return n })
}

func TestTCPCancelRacesFinish(t *testing.T) {
	cancelFinishTest(t, func(t *testing.T) map[SegID]Node { _, n := buildTCP(t, 1); return n })
}

// A sender finishes two streams and the second receiver never answers:
// the drain deadline runs from the moment the final packets left, so
// waiting out the first stream is not added to the second's timeout.
func TestUDPFinishedStreamsTimeOutTogether(t *testing.T) {
	const drainTimeout = 2 * time.Second
	sim := clock.NewSim(time.Unix(0, 0))
	_, nodes := buildUDP(t, 2, UDPConfig{Clock: sim, DrainTimeout: drainTimeout})
	nodes[1].(*UDPNode).SetLossRate(1) // hears the stream, acknowledges nothing
	var streams []SendStream
	for _, to := range []SegID{QDSeg, 1} {
		recv, err := nodes[to].OpenRecv(1, 1, []SegID{0})
		if err != nil {
			t.Fatal(err)
		}
		defer recv.Close()
		s, err := nodes[0].OpenSend(StreamID{Query: 1, Motion: 1, Sender: 0, Receiver: to})
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, s)
	}
	for _, s := range streams {
		if err := s.Finish([]byte("last")); err != nil {
			t.Fatal(err)
		}
	}
	start := sim.Now()
	sim.Advance(drainTimeout * 3 / 5)
	if err := streams[0].Close(); err != nil {
		t.Fatalf("the acknowledged stream: %v", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- streams[1].Close() }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case err := <-closed:
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("the silent stream: %v, want ErrTimeout", err)
			}
			if waited := sim.Now().Sub(start); waited > drainTimeout+drainTimeout/5 {
				t.Fatalf("timed out %v after Finish, want about DrainTimeout (%v): the wait for the first stream was added", waited, drainTimeout)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never timed out")
		}
		sim.Advance(50 * time.Millisecond)
		time.Sleep(time.Millisecond) // let timerLoop take the tick
	}
}

// An acknowledgement is encoded on the stack and retained by nobody. The
// acks go to a socket the test owns and never reads: AllocsPerRun counts
// every goroutine's allocations, and a node's receive loop handling them
// (ReadFromUDP allocates the sender's address) would be counted too.
func TestSendAckAllocatesNothing(t *testing.T) {
	_, nodes := buildUDP(t, 1, UDPConfig{})
	recv, err := nodes[QDSeg].OpenRecv(1, 1, []SegID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	r := recv.(*udpRecv)
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	raddr := sink.LocalAddr().(*net.UDPAddr)
	missing := []byte{0, 0, 0, 1}
	if n := testing.AllocsPerRun(200, func() {
		r.sendAck(ptAck, 0, 1, 1, nil, raddr)
		r.sendAck(ptOOO, 0, 1, 1, missing, raddr)
	}); n != 0 {
		t.Errorf("sendAck allocates %v objects a call pair, want 0", n)
	}
}

// BenchmarkUDPShortStream is the interconnect's share of a short
// statement: a motion whose whole stream is one payload — open both
// halves, finish with the payload, wait for the acknowledgement, read
// to the end, close.
func BenchmarkUDPShortStream(b *testing.B) {
	_, nodes := buildUDP(b, 1, UDPConfig{})
	payload := make([]byte, 64)
	senders := []SegID{0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		query := uint64(i + 1)
		recv, err := nodes[QDSeg].OpenRecv(query, 1, senders)
		if err != nil {
			b.Fatal(err)
		}
		s, err := nodes[0].OpenSend(StreamID{Query: query, Motion: 1, Sender: 0, Receiver: QDSeg})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Finish(payload); err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		if item, done, err := recv.Recv(); err != nil || done || len(item.Data) != len(payload) {
			b.Fatalf("recv: %d bytes, done=%v, %v", len(item.Data), done, err)
		}
		if _, done, err := recv.Recv(); err != nil || !done {
			b.Fatalf("end of stream: done=%v, %v", done, err)
		}
		recv.Close()
	}
}

// The fan-in queue grows with what arrives and reuses what was read: a
// long stream leaves it no larger than the senders' windows allow, and
// one item past the hard bound is the overflow panic it always was.
func TestUDPRecvQueueIsBounded(t *testing.T) {
	_, nodes := buildUDP(t, 2, UDPConfig{RecvWindow: 8})
	runFanIn(t, nodes, 2, 500)
	recv, err := nodes[QDSeg].OpenRecv(1, 1, []SegID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	r := recv.(*udpRecv)
	if r.queue != nil {
		t.Fatalf("a receiver starts with a queue of capacity %d, want none", cap(r.queue))
	}
	const bound = (8+1)*2 + 1
	r.mu.Lock()
	defer r.mu.Unlock()
	for round := 0; round < 100; round++ { // fill, read all but one, again
		for len(r.queue)-r.head < bound {
			r.deliverLocked(recvItem{conn: r.conns[0]})
		}
		r.head = len(r.queue) - 1
	}
	if cap(r.queue) > 2*bound {
		t.Errorf("queue capacity %d after 100 refills, want at most %d", cap(r.queue), 2*bound)
	}
	for len(r.queue)-r.head < bound {
		r.deliverLocked(recvItem{conn: r.conns[0]})
	}
	defer func() {
		if recover() == nil {
			t.Error("an item past the bound was queued, want the overflow panic")
		}
	}()
	r.deliverLocked(recvItem{conn: r.conns[0]})
}
