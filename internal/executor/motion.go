package executor

import (
	"fmt"

	"hawq/internal/interconnect"
	"hawq/internal/obs"
	"hawq/internal/plan"
	"hawq/internal/types"
)

// DefaultMotionPayload is the encoded size a motion accumulates per
// receiver before each interconnect send. It must stay under the
// interconnect's maximum payload (interconnect.UDPConfig.MaxPayload,
// 8 KiB by default for the UDP transport) with headroom for the rows
// that straddle the flush threshold.
const DefaultMotionPayload = 7 * 1024

// motionSendOp is the send half of a motion: it drives its input subtree
// and routes encoded tuple batches to receiver streams. It is always the
// root operator of a non-top slice. It pulls whole batches from its
// input and routes them row-wise into the per-receiver buffers; the wire
// format is a concatenation of EncodeRow frames.
type motionSendOp struct {
	ctx  *Context
	node *plan.Motion

	streams  []interconnect.SendStream
	stopped  []bool
	bufs     [][]byte
	hashCols []int
	rr       int
	done     bool
	inClosed bool
	in       Operator
	// st, when stats are collected, is charged the payload bytes this
	// sender pushed onto the interconnect (OpStats.Bytes).
	st *obs.OpStats
}

// setOpStats implements statsSink.
func (m *motionSendOp) setOpStats(st *obs.OpStats) { m.st = st }

func newMotionSendOp(ctx *Context, node *plan.Motion) (Operator, error) {
	if ctx.Net == nil {
		return nil, fmt.Errorf("executor: motion without interconnect")
	}
	in, err := Build(ctx, node.Input)
	if err != nil {
		return nil, err
	}
	return &motionSendOp{ctx: ctx, node: node, in: in, hashCols: node.HashCols}, nil
}

// Open implements Operator: opens one stream per receiver.
func (m *motionSendOp) Open() error {
	for _, r := range m.node.Receivers {
		s, err := m.ctx.Net.OpenSend(interconnect.StreamID{
			Query:    m.ctx.Query,
			Motion:   m.node.ID,
			Sender:   interconnect.SegID(m.ctx.Segment),
			Receiver: interconnect.SegID(r),
		})
		if err != nil {
			return err
		}
		m.streams = append(m.streams, s)
		m.bufs = append(m.bufs, nil)
		m.stopped = append(m.stopped, false)
	}
	return m.in.Open()
}

// finish ends every live stream — what is left in its buffer and the
// end-of-stream leave as one packet — and only then waits for the
// acknowledgements, so the receivers' round trips overlap. Then it
// closes the input. Called once at end of stream.
func (m *motionSendOp) finish() error {
	m.done = true
	for i, s := range m.streams {
		if m.stopped[i] {
			continue
		}
		if err := m.sent(i, s.Finish(m.bufs[i])); err != nil {
			return err
		}
	}
	for _, s := range m.streams {
		// A stopped stream has nothing to wait for; Close lets it go.
		if err := s.Close(); err != nil {
			return err
		}
	}
	m.inClosed = true
	return m.in.Close()
}

// NextBatch implements Operator: it pumps one input batch through the
// router per call. The caller's batch is used as the pull buffer; its
// contents after the call are routed-and-encoded leftovers of no
// interest to the caller (RunSlice discards them).
func (m *motionSendOp) NextBatch(b *types.Batch) (bool, error) {
	if m.done {
		return false, nil
	}
	ok, err := m.in.NextBatch(b)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, m.finish()
	}
	if err := m.routeBatch(b); err != nil {
		return false, err
	}
	if m.allStopped() {
		// Every receiver said stop: the slice can quit early.
		m.done = true
		m.inClosed = true
		return false, m.in.Close()
	}
	return true, nil
}

func (m *motionSendOp) allStopped() bool {
	for _, s := range m.stopped {
		if !s {
			return false
		}
	}
	return len(m.stopped) > 0
}

// routeBatch appends every row of a batch to the right receiver
// buffer(s).
func (m *motionSendOp) routeBatch(b *types.Batch) error {
	switch m.node.Type {
	case plan.GatherMotion:
		return m.addBatch(0, b)
	case plan.BroadcastMotion:
		for i := range m.streams {
			if err := m.addBatch(i, b); err != nil {
				return err
			}
		}
		return nil
	case plan.RedistributeMotion:
		for r := 0; r < b.Len(); r++ {
			row := b.Row(r)
			var i int
			if len(m.hashCols) == 0 {
				m.rr++
				i = m.rr % len(m.streams)
			} else {
				// The placement hash: redistribution agrees with
				// hash-distributed storage, whatever the key's width.
				key, _ := types.HashKeys(row, m.hashCols)
				i = types.SegmentOf(key, len(m.streams))
			}
			if err := m.add(i, row); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("executor: bad motion type %d", m.node.Type)
	}
}

func (m *motionSendOp) add(i int, row types.Row) error {
	if m.stopped[i] {
		return nil
	}
	m.bufs[i] = types.EncodeRow(m.bufs[i], row)
	if len(m.bufs[i]) >= DefaultMotionPayload {
		return m.flush(i)
	}
	return nil
}

// addBatch encodes every row of a batch into receiver i's buffer.
func (m *motionSendOp) addBatch(i int, b *types.Batch) error {
	for r := 0; r < b.Len(); r++ {
		if m.stopped[i] {
			return nil
		}
		if err := m.add(i, b.Row(r)); err != nil {
			return err
		}
	}
	return nil
}

func (m *motionSendOp) flush(i int) error {
	if len(m.bufs[i]) == 0 {
		return nil
	}
	return m.sent(i, m.streams[i].Send(m.bufs[i]))
}

// sent accounts for receiver i's buffer having been handed to its
// stream with the given outcome: a stopped receiver is remembered, not
// an error.
func (m *motionSendOp) sent(i int, err error) error {
	if err == interconnect.ErrStopped {
		m.stopped[i] = true
		err = nil
	} else if err == nil && m.st != nil {
		m.st.Bytes += int64(len(m.bufs[i]))
	}
	m.bufs[i] = m.bufs[i][:0]
	return err
}

// Close implements Operator.
func (m *motionSendOp) Close() error {
	var err error
	if !m.inClosed {
		m.inClosed = true
		err = m.in.Close()
	}
	for i, s := range m.streams {
		if !m.done && !m.stopped[i] {
			// Abnormal close: still deliver EOS so receivers finish.
			if cerr := s.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	return err
}

// motionRecvOp is the receive half of a motion: it decodes tuple batches
// from the interconnect, one interconnect payload into one batch per
// NextBatch call.
type motionRecvOp struct {
	ctx  *Context
	node *plan.MotionRecv

	stream interconnect.RecvStream
	buf    []byte
	pos    int
	done   bool
	// st, when stats are collected, is charged the payload bytes this
	// receiver pulled off the interconnect (OpStats.Bytes).
	st *obs.OpStats
}

// setOpStats implements statsSink.
func (m *motionRecvOp) setOpStats(st *obs.OpStats) { m.st = st }

func newMotionRecvOp(ctx *Context, node *plan.MotionRecv) (Operator, error) {
	if ctx.Net == nil {
		return nil, fmt.Errorf("executor: motion recv without interconnect")
	}
	return &motionRecvOp{ctx: ctx, node: node}, nil
}

// Open implements Operator.
func (m *motionRecvOp) Open() error {
	senders := make([]interconnect.SegID, len(m.node.Senders))
	for i, s := range m.node.Senders {
		senders[i] = interconnect.SegID(s)
	}
	st, err := m.ctx.Net.OpenRecv(m.ctx.Query, m.node.ID, senders)
	if err != nil {
		return err
	}
	m.stream = st
	return nil
}

// NextBatch implements Operator: one received payload (a concatenation
// of EncodeRow frames) becomes one batch.
func (m *motionRecvOp) NextBatch(b *types.Batch) (bool, error) {
	for {
		if m.pos < len(m.buf) {
			n, err := types.DecodeBatch(m.buf[m.pos:], b)
			if err != nil {
				return false, err
			}
			m.pos += n
			return true, nil
		}
		if m.done {
			return false, nil
		}
		item, done, err := m.stream.Recv()
		if err != nil {
			return false, err
		}
		if done {
			m.done = true
			return false, nil
		}
		if m.st != nil {
			m.st.Bytes += int64(len(item.Data))
		}
		m.buf, m.pos = item.Data, 0
	}
}

// Close implements Operator: an early close (LIMIT satisfied) stops the
// senders.
func (m *motionRecvOp) Close() error {
	if m.stream != nil {
		if !m.done {
			m.stream.Stop()
		}
		m.stream.Close()
		m.stream = nil
	}
	return nil
}
