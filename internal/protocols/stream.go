package protocols

import (
	"errors"
	"fmt"

	"msglayer/internal/cmam"
	"msglayer/internal/cost"
	"msglayer/internal/network"
)

// Stream head-word packing: an 8-bit channel and a 24-bit sequence number.
const (
	streamSeqBits = 24
	streamSeqMask = 1<<streamSeqBits - 1
	maxStreamSeq  = streamSeqMask
)

// ErrWindowFull reports a send refused because the connection already has
// MaxUnacked packets awaiting acknowledgement; retry after pumping.
var ErrWindowFull = errors.New("protocols: stream send window full")

// StreamConfig tunes the indefinite-sequence protocol.
type StreamConfig struct {
	// MaxUnacked bounds the packets a connection may have in flight
	// awaiting acknowledgement — the sender-side half of end-to-end flow
	// control, limiting how much source buffering and receiver reorder
	// space a channel can consume. Zero means unbounded (the paper's
	// Table 2 configuration).
	MaxUnacked int
	// AckGroup is the group-acknowledgement size g: the receiver
	// acknowledges after every g in-order deliveries. The paper's Table 2
	// uses g = 1 (each packet has its own acknowledgement) and Section
	// 3.2 discusses amortizing with larger g at the cost of holding
	// source buffers longer. Defaults to 1.
	AckGroup int
	// NackThreshold is the number of distinct buffered (gap-blocked)
	// packets that convinces the receiver a packet was lost rather than
	// merely overtaken, triggering a negative acknowledgement. Benign
	// adaptive-routing reorder keeps buffers shallow; loss makes them
	// grow. Defaults to 4; a negative value disables NACKs.
	NackThreshold int
	// RetransmitAfter is the number of consecutive Pump calls without
	// acknowledgement progress after which the source retransmits its
	// oldest unacknowledged packet — the timeout backstop for lost
	// packets and lost NACKs. Zero disables timeouts.
	RetransmitAfter int
	// OnDeliver is the user handler invoked, in transmission order, for
	// every delivered packet. It runs at user level and is not charged.
	OnDeliver func(src int, ch uint8, data []network.Word)
}

// Stream is the per-node service implementing the indefinite-sequence
// multi-packet protocol of the paper's Figure 4: the source buffers each
// packet (supporting retransmission) and sends it with a sequence number;
// the receiver buffers out-of-order arrivals, delivers in order, and
// acknowledges so source buffers can be released.
type Stream struct {
	ep  *cmam.Endpoint
	cfg StreamConfig

	// A node keeps a few channels, so they sit in lists (in Open and
	// first-arrival order) rather than maps.
	out []*Conn
	in  []*inConn
	err error
}

// Conn is the source side of one ordered channel.
type Conn struct {
	s   *Stream
	dst int
	ch  uint8

	nextSeq uint32
	// unacked retains every packet from the oldest unacknowledged one to
	// nextSeq, with the observability message identity of its Send, so
	// deferred injections and retransmissions attribute to that Send.
	unacked  sendWindow
	unsent   uint32 // first sequence number not yet injected (backpressure)
	idlePump int    // Pump calls without ack progress
	closed   bool
}

// inConn is the receiver side of one ordered channel.
type inConn struct {
	src       int
	ch        uint8
	expected  uint32
	buffered  reorderBuffer // arrivals past expected
	delivered uint64
	sinceAck  int
	nackedFor uint32
	hasNacked bool
}

// NewStream installs the indefinite-sequence protocol on an endpoint.
func NewStream(ep *cmam.Endpoint, cfg StreamConfig) (*Stream, error) {
	if cfg.AckGroup <= 0 {
		cfg.AckGroup = 1
	}
	if cfg.NackThreshold == 0 {
		cfg.NackThreshold = 4
	}
	s := &Stream{ep: ep, cfg: cfg}
	if err := ep.RegisterTag(TagStream, s.sink); err != nil {
		return nil, err
	}
	ep.Register(HStreamAck, s.handleAck)
	ep.Register(HStreamNack, s.handleNack)
	return s, nil
}

// MustNewStream is NewStream that panics on error; registration can only
// fail on a reserved tag, which is a programming error.
func MustNewStream(ep *cmam.Endpoint, cfg StreamConfig) *Stream {
	s, err := NewStream(ep, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Stream) sched() *cost.Schedule { return s.ep.Node().Sched }

// Open returns the source side of channel ch toward dst, creating it on
// first use.
func (s *Stream) Open(dst int, ch uint8) *Conn {
	if c := s.conn(dst, ch); c != nil {
		return c
	}
	c := &Conn{s: s, dst: dst, ch: ch}
	s.out = append(s.out, c)
	return c
}

// conn returns the source side of channel ch toward dst, nil if unopened.
func (s *Stream) conn(dst int, ch uint8) *Conn {
	for _, c := range s.out {
		if c.dst == dst && c.ch == ch {
			return c
		}
	}
	return nil
}

// Send transmits one packet's worth of data (at most the hardware packet
// payload) on the channel. The data is copied into the source's
// retransmission buffer before injection, per Figure 4 step 1.
func (c *Conn) Send(data ...network.Word) error {
	if c.closed {
		return errors.New("protocols: send on closed stream")
	}
	if len(data) == 0 || len(data) > c.s.sched().PacketWords {
		return fmt.Errorf("protocols: stream send of %d words (packet payload is %d)",
			len(data), c.s.sched().PacketWords)
	}
	if c.nextSeq > maxStreamSeq {
		return fmt.Errorf("protocols: stream exhausted its %d-bit sequence space", streamSeqBits)
	}
	if max := c.s.cfg.MaxUnacked; max > 0 && c.unacked.n >= max {
		return ErrWindowFull
	}
	node := c.s.ep.Node()
	c.nextSeq++ // the packet's sequence number is the window's base+n

	// Each sequenced packet is one causal message: the buffering below, the
	// (possibly deferred) injection, any retransmission, and the eventual
	// acknowledgement all attribute to it.
	prevMsg := node.Obs.CurrentMsg()
	msg := node.Obs.NewMsg()
	defer node.Obs.SwapMsg(prevMsg)

	// Step 1: buffer the message to support retransmission (fault
	// tolerance), plus sequence-number bookkeeping (in-order delivery)
	// and the base injection cost.
	node.Charge(cost.FaultTol, c.s.sched().SourceBufferPacket)
	node.Charge(cost.InOrder, c.s.sched().SeqPerPacket)
	node.Charge(cost.Base, c.s.sched().StreamSendPacket)
	node.Event("stream.srcbuffer")
	c.unacked.push(data, msg)
	return c.flush()
}

// flush injects the packets not yet sent, in order, until backpressure.
func (c *Conn) flush() error {
	node := c.s.ep.Node()
	for ; c.unsent != c.nextSeq; c.unsent++ {
		seq := c.unsent
		r, ok := c.unacked.get(seq)
		if !ok {
			// Acked while queued (a retransmission raced ahead); skip.
			continue
		}
		prev := node.Obs.SwapMsg(r.msg)
		err := c.inject(seq, r.data)
		if errors.Is(err, network.ErrBackpressure) {
			node.Charge(cost.Base, retryProbe)
			node.Event("stream.backpressure")
			node.Obs.SwapMsg(prev)
			node.Obs.SendQueueDepth(int(c.nextSeq - c.unsent))
			return nil
		}
		if err != nil {
			node.Obs.SwapMsg(prev)
			return err
		}
		node.Event("stream.packet.sent")
		node.Obs.SwapMsg(prev)
	}
	node.Obs.SendQueueDepth(0)
	return nil
}

// inject performs the raw send of one sequenced packet (step 2).
func (c *Conn) inject(seq uint32, data []network.Word) error {
	head := network.Word(c.ch)<<streamSeqBits | network.Word(seq&streamSeqMask)
	return c.s.ep.Send(c.dst, TagStream, head, data, cost.Base, nil)
}

// Unacked returns the number of packets awaiting acknowledgement.
func (c *Conn) Unacked() int { return c.unacked.n }

// Idle reports whether everything sent has been injected and acknowledged.
func (c *Conn) Idle() bool { return c.unacked.n == 0 && c.unsent == c.nextSeq }

// Close marks the channel closed for further sends.
func (c *Conn) Close() { c.closed = true }

// Pump polls the endpoint, retries backpressured injections, and applies
// the retransmission timeout. Call repeatedly until connections are Idle.
func (s *Stream) Pump() error {
	if _, err := s.ep.Poll(0); err != nil {
		return err
	}
	if s.err != nil {
		err := s.err
		s.err = nil
		return err
	}
	for _, c := range s.out {
		if err := c.flush(); err != nil {
			return err
		}
		if c.unacked.n == 0 {
			c.idlePump = 0
			continue
		}
		c.idlePump++
		if s.cfg.RetransmitAfter > 0 && c.idlePump >= s.cfg.RetransmitAfter {
			c.idlePump = 0
			if err := c.retransmit(c.unacked.base); err != nil {
				return err
			}
			s.ep.Node().Event("stream.timeout")
		}
	}
	return nil
}

// Step adapts the stream service to machine.Stepper semantics: done when
// every connection is idle.
func (s *Stream) Step() (bool, error) {
	if err := s.Pump(); err != nil {
		return false, err
	}
	for _, c := range s.out {
		if !c.Idle() {
			return false, nil
		}
	}
	return true, nil
}

// retransmit resends one buffered packet, charging fault tolerance. The
// event accompanies the charge (not the injection) so accounting can be
// reconstructed from event counts exactly.
func (c *Conn) retransmit(seq uint32) error {
	r, ok := c.unacked.get(seq)
	if !ok {
		return nil // already acknowledged
	}
	node := c.s.ep.Node()
	prev := node.Obs.SwapMsg(r.msg)
	defer node.Obs.SwapMsg(prev)
	node.Charge(cost.FaultTol, c.s.sched().Retransmit)
	node.Event("stream.retransmit")
	err := c.inject(seq, r.data)
	if errors.Is(err, network.ErrBackpressure) {
		node.Charge(cost.Base, retryProbe)
		node.Event("stream.backpressure")
		return nil // the timeout will fire again
	}
	return err
}

// sink receives stream data packets (steps 3 and 4 at the receiver).
func (s *Stream) sink(src int, head network.Word, data []network.Word) error {
	node := s.ep.Node()
	ch := uint8(head >> streamSeqBits)
	seq := uint32(head & streamSeqMask)
	in := s.inConn(src, ch)
	if in == nil {
		in = &inConn{src: src, ch: ch}
		s.in = append(s.in, in)
		// Per-channel reception-path setup.
		node.Charge(cost.Base, s.sched().StreamRecvFixed)
	}
	node.Charge(cost.Base, s.sched().StreamRecvPacket)

	switch {
	case seq == in.expected:
		node.Charge(cost.InOrder, s.sched().InOrderArrival)
		node.Event("stream.inorder")
		if err := s.deliver(src, ch, in, data); err != nil {
			return err
		}
		// Drain any buffered packets that are now in order.
		for {
			next, ok := in.buffered.advance()
			if !ok {
				break
			}
			node.Charge(cost.InOrder, s.sched().DrainBuffered)
			node.Event("stream.drain")
			if err := s.deliver(src, ch, in, next); err != nil {
				return err
			}
		}
	case seq < in.expected:
		// The sender is retransmitting something we already delivered —
		// our acknowledgement must have been lost. Re-acknowledge
		// cumulatively so the sender's buffers drain.
		node.Event("stream.duplicate")
		if in.expected > 0 {
			if err := s.ep.SendAM(src, HStreamAck, cost.FaultTol, s.sched().StreamAckSend,
				network.Word(ch), network.Word(in.expected-1)); err != nil {
				if errors.Is(err, network.ErrBackpressure) {
					node.Event("stream.backpressure")
					return nil
				}
				return err
			}
			in.sinceAck = 0
			node.Event("stream.ack.sent")
		}
	default:
		if !in.buffered.put(seq-in.expected, data) {
			node.Event("stream.duplicate")
			break
		}
		node.Charge(cost.InOrder, s.sched().OutOfOrderArrival)
		node.Event("stream.outoforder")
	}

	// Loss suspicion: a growing reorder buffer means the expected packet
	// is not merely overtaken but gone.
	if s.cfg.NackThreshold > 0 && in.buffered.count >= s.cfg.NackThreshold &&
		(!in.hasNacked || in.nackedFor != in.expected) {
		in.hasNacked = true
		in.nackedFor = in.expected
		if err := s.ep.SendAM(src, HStreamNack, cost.FaultTol, s.sched().StreamAckSend,
			network.Word(ch), network.Word(in.expected)); err != nil {
			if errors.Is(err, network.ErrBackpressure) {
				in.hasNacked = false // try again on a later packet
				return nil
			}
			return err
		}
		node.Event("stream.nack.sent")
	}
	return nil
}

// inConn returns the receiver side of channel ch from src, nil before its
// first packet.
func (s *Stream) inConn(src int, ch uint8) *inConn {
	for _, in := range s.in {
		if in.src == src && in.ch == ch {
			return in
		}
	}
	return nil
}

// deliver hands one packet to the user in order and applies the
// acknowledgement policy (step 4: each packet, or each group, is
// acknowledged so source storage can be released).
func (s *Stream) deliver(src int, ch uint8, in *inConn, data []network.Word) error {
	node := s.ep.Node()
	if s.cfg.OnDeliver != nil {
		s.cfg.OnDeliver(src, ch, data)
	}
	in.expected++
	in.delivered++
	in.sinceAck++
	if in.sinceAck >= s.cfg.AckGroup {
		in.sinceAck = 0
		if err := s.ep.SendAM(src, HStreamAck, cost.FaultTol, s.sched().StreamAckSend,
			network.Word(ch), network.Word(in.expected-1)); err != nil {
			if errors.Is(err, network.ErrBackpressure) {
				// Charge was taken; the next delivery's acknowledgement
				// is cumulative, so correctness is unaffected.
				in.sinceAck = s.cfg.AckGroup
				node.Event("stream.backpressure")
				return nil
			}
			return err
		}
		node.Event("stream.ack.sent")
	}
	return nil
}

// handleAck runs at the source: a cumulative acknowledgement through a
// sequence number releases the retained copies.
func (s *Stream) handleAck(src int, args []network.Word) {
	node := s.ep.Node()
	node.Charge(cost.FaultTol, s.sched().StreamAckRecv)
	if len(args) != 2 {
		s.err = fmt.Errorf("protocols: malformed stream ack from node %d: %v", src, args)
		return
	}
	c := s.conn(src, uint8(args[0]))
	if c == nil {
		s.err = fmt.Errorf("protocols: stream ack for unknown channel %d from node %d", args[0], src)
		return
	}
	c.unacked.release(uint32(args[1]))
	c.idlePump = 0
	node.Event("stream.ack.recv")
}

// handleNack runs at the source: retransmit the requested packet.
func (s *Stream) handleNack(src int, args []network.Word) {
	node := s.ep.Node()
	node.Charge(cost.FaultTol, s.sched().StreamAckRecv)
	if len(args) != 2 {
		s.err = fmt.Errorf("protocols: malformed stream nack from node %d: %v", src, args)
		return
	}
	c := s.conn(src, uint8(args[0]))
	if c == nil {
		s.err = fmt.Errorf("protocols: stream nack for unknown channel %d from node %d", args[0], src)
		return
	}
	if err := c.retransmit(uint32(args[1])); err != nil {
		s.err = err
	}
	node.Event("stream.nack.recv")
}
