package executor

import (
	"fmt"

	"hawq/internal/interconnect"
	"hawq/internal/obs"
	"hawq/internal/plan"
	"hawq/internal/types"
)

// DefaultMotionPayload is the encoded size a motion accumulates per
// receiver before each interconnect send. It stays under the
// interconnect's maximum payload (interconnect.MaxPayload) with
// headroom for the rows that straddle the flush threshold.
const DefaultMotionPayload = 7 * 1024

// A DefaultMotionPayload at or above interconnect.MaxPayload makes this
// constant negative, which does not compile.
const _ = uint(interconnect.MaxPayload - DefaultMotionPayload - 1)

// motionSendOp is the send half of a motion: it drives its input subtree
// and routes encoded tuple batches to receiver streams. It is always the
// root operator of a non-top slice. It pulls whole batches from its
// input and routes them row-wise into the per-receiver buffers; the wire
// format is a concatenation of EncodeRow frames.
type motionSendOp struct {
	ctx  *Context
	node *plan.Motion

	outs     []motionOut // one per receiver, in the receiving gang's order
	hashCols []int
	rr       int
	done     bool
	inClosed bool
	in       Operator
	// st, when stats are collected, is charged the payload bytes this
	// sender pushed onto the interconnect (OpStats.Bytes).
	st *obs.OpStats
}

// motionOut is a sender's stream to one receiver and the rows encoded
// for it since the last send.
type motionOut struct {
	stream  interconnect.SendStream
	buf     []byte
	stopped bool // the receiver said stop: drop its rows
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

// motionSlice returns the slice a motion roots in the dispatched plan:
// its gang sends, and its parent's gang receives.
func (ctx *Context) motionSlice(id int16) (*plan.Slice, error) {
	if ctx.Plan == nil || id <= 0 || int(id) >= len(ctx.Plan.Slices) {
		return nil, fmt.Errorf("executor: motion %d has no slice in the plan", id)
	}
	return ctx.Plan.Slices[id], nil
}

// Open implements Operator: opens one stream per receiver.
func (m *motionSendOp) Open() error {
	sl, err := m.ctx.motionSlice(m.node.ID)
	if err != nil {
		return err
	}
	receivers := m.ctx.Plan.Slices[sl.Parent].Segments
	m.outs = make([]motionOut, len(receivers))
	for i, r := range receivers {
		s, err := m.ctx.Net.OpenSend(interconnect.StreamID{
			Query:    m.ctx.Query,
			Motion:   m.node.ID,
			Sender:   interconnect.SegID(m.ctx.Segment),
			Receiver: interconnect.SegID(r),
		})
		if err != nil {
			m.outs = m.outs[:i]
			return err
		}
		m.outs[i].stream = s
	}
	return m.in.Open()
}

// finish ends every live stream — what is left in its buffer and the
// end-of-stream leave as one packet — and only then waits for the
// acknowledgements, so the receivers' round trips overlap. Then it
// closes the input. Called once at end of stream.
func (m *motionSendOp) finish() error {
	m.done = true
	for i := range m.outs {
		o := &m.outs[i]
		if o.stopped {
			continue
		}
		if err := m.sent(o, o.stream.Finish(o.buf)); err != nil {
			return err
		}
	}
	for _, o := range m.outs {
		// A stopped stream has nothing to wait for; Close lets it go.
		if err := o.stream.Close(); err != nil {
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
	for _, o := range m.outs {
		if !o.stopped {
			return false
		}
	}
	return len(m.outs) > 0
}

// routeBatch appends every row of a batch to the right receiver
// buffer(s).
func (m *motionSendOp) routeBatch(b *types.Batch) error {
	switch m.node.Type {
	case plan.GatherMotion:
		return m.addBatch(&m.outs[0], b)
	case plan.BroadcastMotion:
		for i := range m.outs {
			if err := m.addBatch(&m.outs[i], b); err != nil {
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
				i = m.rr % len(m.outs)
			} else {
				// The placement hash: redistribution agrees with
				// hash-distributed storage, whatever the key's width.
				key, _ := types.HashKeys(row, m.hashCols)
				i = types.SegmentOf(key, len(m.outs))
			}
			if err := m.add(&m.outs[i], row); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("executor: bad motion type %d", m.node.Type)
	}
}

func (m *motionSendOp) add(o *motionOut, row types.Row) error {
	if o.stopped {
		return nil
	}
	o.buf = types.EncodeRow(o.buf, row)
	if len(o.buf) >= DefaultMotionPayload {
		return m.sent(o, o.stream.Send(o.buf))
	}
	return nil
}

// addBatch encodes every row of a batch into o's buffer.
func (m *motionSendOp) addBatch(o *motionOut, b *types.Batch) error {
	for r := 0; r < b.Len(); r++ {
		if o.stopped {
			return nil
		}
		if err := m.add(o, b.Row(r)); err != nil {
			return err
		}
	}
	return nil
}

// sent accounts for o's buffer having been handed to its stream with
// the given outcome: a stopped receiver is remembered, not an error.
func (m *motionSendOp) sent(o *motionOut, err error) error {
	if err == interconnect.ErrStopped {
		o.stopped = true
		err = nil
	} else if err == nil && m.st != nil {
		m.st.Bytes += int64(len(o.buf))
	}
	o.buf = o.buf[:0]
	return err
}

// Close implements Operator.
func (m *motionSendOp) Close() error {
	var err error
	if !m.inClosed {
		m.inClosed = true
		err = m.in.Close()
	}
	for _, o := range m.outs {
		if !m.done && !o.stopped {
			// Abnormal close: still deliver EOS so receivers finish.
			if cerr := o.stream.Close(); cerr != nil && err == nil {
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
	sl, err := m.ctx.motionSlice(m.node.ID)
	if err != nil {
		return err
	}
	senders := make([]interconnect.SegID, len(sl.Segments))
	for i, s := range sl.Segments {
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
