// Package interconnect implements HAWQ's software interconnect (§4): the
// tuple transport between query execution slices. Two implementations are
// provided behind one interface:
//
//   - UDP: the paper's design. All tuple streams of a segment multiplex
//     over a single UDP socket. The protocol layers reliability
//     (acknowledgements + retransmission), ordering (per-stream sequence
//     numbers with an out-of-order buffer), flow control (a loss-driven
//     congestion window with slow start plus receiver-capacity
//     back-pressure via the SC/SR fields of every ack), and the
//     EOS/STOP state machines of Figure 5, including the
//     status-query deadlock elimination of §4.5.
//
//   - TCP: one connection per sender→receiver stream pair, kept for the
//     Figure 12 comparison. Its per-stream connection setup is exactly
//     the scalability limit the UDP design removes.
//
// A "node" is one process endpoint (a segment or the master/QD); streams
// are identified by (query, motion, sender, receiver).
package interconnect

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// SegID identifies a node in the interconnect address book. The QD
// (master) conventionally uses QDSeg.
type SegID int16

// QDSeg is the reserved node ID for the query dispatcher on the master.
const QDSeg SegID = -1

// StreamID names one directed tuple stream of a motion.
type StreamID struct {
	Query    uint64
	Motion   int16
	Sender   SegID
	Receiver SegID
}

// String formats the stream id for logs and error messages.
func (s StreamID) String() string {
	return fmt.Sprintf("q%d/m%d %d->%d", s.Query, s.Motion, s.Sender, s.Receiver)
}

// motionKey identifies the receiving end of a motion on one node.
type motionKey struct {
	Query    uint64
	Motion   int16
	Receiver SegID
}

// Errors returned by streams.
var (
	// ErrStopped is returned by Send after the receiver sent STOP
	// (e.g. a LIMIT was satisfied, §4.1).
	ErrStopped = errors.New("interconnect: receiver stopped the stream")
	// ErrClosed is returned for operations on closed nodes or streams.
	ErrClosed = errors.New("interconnect: closed")
	// ErrTimeout is returned when a close/drain deadline passes.
	ErrTimeout = errors.New("interconnect: timed out")
	// ErrCanceled is returned by Recv after CancelQuery.
	ErrCanceled = errors.New("interconnect: query canceled")
)

// SendStream is the sending half of one stream. Safe for use by a single
// goroutine (one QE drives one slice).
type SendStream interface {
	// Send transmits one message (a batch of encoded tuples). It blocks
	// for flow control and returns ErrStopped once the receiver asked
	// senders to stop.
	Send(data []byte) error
	// Finish transmits the stream's last message and its end-of-stream
	// as one sequenced packet (no message at all when data is empty)
	// and returns once the packet is handed to the transport. Nothing
	// may be sent after it; Close still has to follow.
	Finish(data []byte) error
	// Close waits until the receiver acknowledged everything (or the
	// stream was stopped). A stream that was never finished sends a bare
	// EOS first, so that an abnormal close still ends the receiver.
	Close() error
}

// RecvItem is one delivery from a RecvStream.
type RecvItem struct {
	Sender SegID
	Data   []byte
}

// RecvStream is the receiving half of a motion on one node: it merges the
// streams from all senders.
type RecvStream interface {
	// Recv returns the next message from any sender. After every sender
	// delivered EOS it returns (RecvItem{}, io.EOF-like done=true).
	Recv() (RecvItem, bool, error)
	// Stop tells every sender to stop producing (LIMIT pushdown).
	Stop()
	// Close releases the stream. Data arriving afterwards is answered
	// with STOP so lingering senders terminate.
	Close()
}

// Node is one interconnect endpoint.
type Node interface {
	// Seg returns this node's ID.
	Seg() SegID
	// OpenSend creates the sending half of a stream.
	OpenSend(sid StreamID) (SendStream, error)
	// OpenRecv registers the receiving half of a motion, accepting from
	// the given senders.
	OpenRecv(query uint64, motion int16, senders []SegID) (RecvStream, error)
	// CancelQuery aborts every receive stream of a query on this node:
	// blocked Recv calls return ErrCanceled. The dispatcher uses it to
	// tear a failed query down without leaving QEs waiting (§2.6 —
	// in-flight queries fail and are restarted).
	CancelQuery(query uint64)
	// Close shuts the node down.
	Close() error
}

// Packet types of the UDP protocol.
const (
	ptData  = 1 // sequenced tuple payload
	ptEOS   = 2 // sequenced end-of-stream marker; a payload is the last message
	ptAck   = 3 // SC/SR acknowledgement
	ptDup   = 4 // duplicate-detected ack (cumulative, §4.4)
	ptOOO   = 5 // out-of-order notice listing missing sequences (§4.4)
	ptStop  = 6 // receiver asks sender to stop (Figure 5)
	ptQuery = 7 // sender status query for deadlock elimination (§4.5)
)

const packetMagic = 0xCB

// header is the wire header present on every packet. Fields are evenly
// aligned and fixed-width for portability (§4.1).
type header struct {
	Type     uint8
	Query    uint64
	Motion   int16
	Sender   SegID
	Receiver SegID
	Seq      uint32 // DATA/EOS: sequence number
	SC       uint32 // ACK/DUP/OOO: highest consumed seq
	SR       uint32 // ACK/DUP/OOO: highest in-order received seq
}

const headerSize = 1 + 1 + 8 + 2 + 2 + 2 + 4 + 4 + 4

func encodePacket(h header, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	putHeader(buf, h)
	copy(buf[headerSize:], payload)
	return buf
}

// putHeader encodes h into the first headerSize bytes of buf.
func putHeader(buf []byte, h header) {
	buf[0] = packetMagic
	buf[1] = h.Type
	binary.BigEndian.PutUint64(buf[2:], h.Query)
	binary.BigEndian.PutUint16(buf[10:], uint16(h.Motion))
	binary.BigEndian.PutUint16(buf[12:], uint16(h.Sender))
	binary.BigEndian.PutUint16(buf[14:], uint16(h.Receiver))
	binary.BigEndian.PutUint32(buf[16:], h.Seq)
	binary.BigEndian.PutUint32(buf[20:], h.SC)
	binary.BigEndian.PutUint32(buf[24:], h.SR)
}

func decodePacket(buf []byte) (header, []byte, error) {
	var h header
	if len(buf) < headerSize || buf[0] != packetMagic {
		return h, nil, fmt.Errorf("interconnect: malformed packet (%d bytes)", len(buf))
	}
	h.Type = buf[1]
	h.Query = binary.BigEndian.Uint64(buf[2:])
	h.Motion = int16(binary.BigEndian.Uint16(buf[10:]))
	h.Sender = SegID(binary.BigEndian.Uint16(buf[12:]))
	h.Receiver = SegID(binary.BigEndian.Uint16(buf[14:]))
	h.Seq = binary.BigEndian.Uint32(buf[16:])
	h.SC = binary.BigEndian.Uint32(buf[20:])
	h.SR = binary.BigEndian.Uint32(buf[24:])
	return h, buf[headerSize:], nil
}
