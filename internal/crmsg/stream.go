package crmsg

import (
	"errors"
	"fmt"
	"slices"

	"msglayer/internal/cmam"
	"msglayer/internal/cost"
	"msglayer/internal/network"
)

// StreamConfig tunes a CR stream service.
type StreamConfig struct {
	// OnDeliver is the user handler invoked, in transmission order, for
	// every delivered packet. Order and reliability are hardware
	// guarantees here, so the software adds nothing to get them.
	OnDeliver func(src int, ch uint8, data []network.Word)
}

// Stream is the per-node CR indefinite-sequence service (Figure 7): the
// protocol is "implemented essentially for free on top of multiple
// single-packet transmissions" — no sequence numbers, no reorder buffering,
// no source buffering, no acknowledgements.
type Stream struct {
	ep  *cmam.Endpoint
	cfg StreamConfig

	// A node keeps a few channels, so they sit in lists: out in Open
	// order, seen in first-arrival order.
	out  []*Conn
	seen []connKey // receiver channels whose fixed cost is charged
}

type connKey struct {
	peer int
	ch   uint8
}

// Conn is the source side of one CR channel.
type Conn struct {
	s      *Stream
	dst    int
	ch     uint8
	sendq  [][]network.Word // packets awaiting injection after backpressure
	slab   network.Slab     // storage of the sendq copies, which the Conn owns
	sent   uint64
	closed bool

	// sendqMsg carries the observability message identity of each queued
	// packet, kept in lockstep with sendq. Empty while untraced.
	sendqMsg []uint64
}

// NewStream installs the CR stream protocol on an endpoint.
func NewStream(ep *cmam.Endpoint, cfg StreamConfig) (*Stream, error) {
	s := &Stream{ep: ep, cfg: cfg}
	if err := ep.RegisterTag(TagStream, s.sink); err != nil {
		return nil, err
	}
	return s, nil
}

// MustNewStream is NewStream that panics on error.
func MustNewStream(ep *cmam.Endpoint, cfg StreamConfig) *Stream {
	s, err := NewStream(ep, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Stream) sched() *cost.Schedule { return s.ep.Node().Sched }

// Open returns the source side of channel ch toward dst.
func (s *Stream) Open(dst int, ch uint8) *Conn {
	for _, c := range s.out {
		if c.dst == dst && c.ch == ch {
			return c
		}
	}
	c := &Conn{s: s, dst: dst, ch: ch}
	s.out = append(s.out, c)
	return c
}

// Send transmits one packet's worth of data. On this substrate a
// successful injection is a delivery guarantee, so there is nothing to
// buffer and nothing to wait for.
func (c *Conn) Send(data ...network.Word) error {
	if c.closed {
		return errors.New("crmsg: send on closed stream")
	}
	if len(data) == 0 || len(data) > c.s.sched().PacketWords {
		return fmt.Errorf("crmsg: stream send of %d words (packet payload is %d)",
			len(data), c.s.sched().PacketWords)
	}
	node := c.s.ep.Node()
	// Each packet is one causal message; a queued packet remembers its
	// identity so the deferred injection attributes to the Send.
	prevMsg := node.Obs.CurrentMsg()
	msg := node.Obs.NewMsg()
	defer node.Obs.SwapMsg(prevMsg)
	node.Charge(cost.Base, c.s.sched().CRStreamSend)
	if len(c.sendq) > 0 {
		// Preserve injection order behind backpressured packets.
		c.enqueue(c.slab.Clone(data), msg)
		return nil
	}
	err := c.inject(data)
	if errors.Is(err, network.ErrBackpressure) {
		node.Charge(cost.Base, retryProbe)
		c.enqueue(c.slab.Clone(data), msg)
		return nil
	}
	return err
}

// enqueue appends a backpressured packet and its message identity.
func (c *Conn) enqueue(buf []network.Word, msg uint64) {
	c.sendq = append(c.sendq, buf)
	if msg != 0 || len(c.sendqMsg) > 0 {
		for len(c.sendqMsg) < len(c.sendq)-1 {
			c.sendqMsg = append(c.sendqMsg, 0)
		}
		c.sendqMsg = append(c.sendqMsg, msg)
	}
}

// dequeueMsg pops the message identity paired with the head of sendq.
func (c *Conn) dequeueMsg() uint64 {
	if len(c.sendqMsg) == 0 {
		return 0
	}
	msg := c.sendqMsg[0]
	c.sendqMsg = c.sendqMsg[1:]
	return msg
}

func (c *Conn) inject(data []network.Word) error {
	err := c.s.ep.Send(c.dst, TagStream, network.Word(c.ch), data, cost.Base, nil)
	if err == nil {
		c.sent++
		c.s.ep.Node().Event("crstream.packet.sent")
	}
	return err
}

// Idle reports whether every send has been injected.
func (c *Conn) Idle() bool { return len(c.sendq) == 0 }

// Sent returns the number of packets injected so far.
func (c *Conn) Sent() uint64 { return c.sent }

// Close marks the channel closed for further sends.
func (c *Conn) Close() { c.closed = true }

// Pump polls for incoming packets and retries backpressured injections.
func (s *Stream) Pump() error {
	if _, err := s.ep.Poll(0); err != nil {
		return err
	}
	node := s.ep.Node()
	for _, c := range s.out {
		for len(c.sendq) > 0 {
			var headMsg uint64
			if len(c.sendqMsg) > 0 {
				headMsg = c.sendqMsg[0]
			}
			prev := node.Obs.SwapMsg(headMsg)
			err := c.inject(c.sendq[0])
			node.Obs.SwapMsg(prev)
			if errors.Is(err, network.ErrBackpressure) {
				node.Charge(cost.Base, retryProbe)
				break
			}
			if err != nil {
				return err
			}
			c.sendq = c.sendq[1:]
			c.dequeueMsg()
		}
	}
	return nil
}

// Step adapts the service to machine.Stepper semantics: done when every
// connection is idle.
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

// sink receives stream packets: fixed per-channel setup, then a bare
// extraction and handler dispatch per packet.
func (s *Stream) sink(src int, head network.Word, data []network.Word) error {
	node := s.ep.Node()
	ch := uint8(head)
	if key := (connKey{src, ch}); !slices.Contains(s.seen, key) {
		s.seen = append(s.seen, key)
		node.Charge(cost.Base, s.sched().CRStreamRecvFixed)
	}
	node.Charge(cost.Base, s.sched().CRStreamRecv)
	node.Event("crstream.packet.recv")
	if s.cfg.OnDeliver != nil {
		s.cfg.OnDeliver(src, ch, data)
	}
	return nil
}
