// Package cmam implements the messaging-layer mechanism of the CM-5 active
// messages layer (CMAM), the substrate of the paper's Section 3 analysis.
//
// The basic primitive is the active message: a packet carrying a handler
// identifier that is invoked at the receiver with the packet's data (the
// CMAM_4 interface). Bulk memory-to-memory transfers are supported by
// communication segments: a receiver associates a segment number with a
// target buffer, and incoming transfer packets carry (segment, offset) so
// data lands at the right position regardless of arrival order (the
// CMAM_xfer / CMAM_handle_left_xfer interface).
//
// The package provides mechanism only; instruction-cost attribution is the
// protocols' job (see internal/protocols), because the same physical send
// counts as Base cost in one protocol step and Fault-tolerance cost in
// another. Sends accept an optional charge bundle, and received packets are
// costed by the invoked handler or segment hooks.
package cmam

import (
	"errors"
	"fmt"

	"msglayer/internal/cost"
	"msglayer/internal/machine"
	"msglayer/internal/network"
	"msglayer/internal/ni"
)

// Hardware message tags used to vector received packets.
const (
	// TagAM marks a handler-carrying active message (CMAM_4); the head
	// word holds the HandlerID.
	TagAM network.Tag = 1
	// TagXfer marks a bulk-transfer data packet (CMAM_xfer); the head
	// word holds the segment id and word offset.
	TagXfer network.Tag = 2
)

// HandlerID names a registered active-message handler, playing the role of
// the handler function pointer a real CMAM packet carries.
type HandlerID uint16

// Handler is the computation associated with an active message. It runs at
// the receiver when the message is polled and is responsible for charging
// its own reception cost against the endpoint's node.
type Handler func(src int, args []network.Word)

// SegmentID names an allocated communication segment.
type SegmentID uint16

const (
	maxOffset  = 1 << 16 // the head word packs a 16-bit word offset
	maxSegment = 1 << 16 // and a 16-bit segment id
)

// Segment is a receiver-side communication segment: a target buffer plus
// completion tracking. Arrivals are idempotent per offset: a retransmitted
// packet overwrites the same words without double-counting, so reliable
// transfer protocols can blindly resend.
type segment struct {
	buf       []network.Word
	remaining int
	received  []uint64 // bit o set: the packet at word offset o was counted
	onPacket  func(offset, words int)
	onDone    func()
}

// count marks the packet at a word offset received, reporting false when
// it already was. Offsets run to len(buf) (an empty packet may sit at the
// end), and the head word caps them below maxOffset.
func (s *segment) count(offset int) bool {
	w, bit := offset/64, uint64(1)<<(offset%64)
	if s.received[w]&bit != 0 {
		return false
	}
	s.received[w] |= bit
	return true
}

// segSlot is one segment id's state: its live segment, or a tombstone once
// it was freed.
type segSlot struct {
	seg   *segment
	freed bool // freed segments; late duplicates are dropped
}

// TagSink receives every packet carrying a tag registered with RegisterTag,
// letting higher layers (the indefinite-sequence stream protocol, the
// Compressionless-Routing layer) define their own packet formats on top of
// the endpoint's dispatch loop.
type TagSink func(src int, head network.Word, data []network.Word) error

// Endpoint is one node's CMAM layer instance. A node registers a handful
// of handlers and tags, so they sit in short lists; segments sit in a table
// indexed by id, which ids are handed out in order to fill.
type Endpoint struct {
	node     *machine.Node
	handlers []handlerEntry
	sinks    []sinkEntry
	segs     []segSlot // indexed by SegmentID, as far as ids were handed out
	nextSeg  SegmentID

	// The lists start in these arrays: a protocol registers at most three
	// handlers and two tags on a node.
	handlerRoom [4]handlerEntry
	sinkRoom    [2]sinkEntry
}

type handlerEntry struct {
	id HandlerID
	h  Handler
}

type sinkEntry struct {
	tag  network.Tag
	sink TagSink
}

// Package errors.
var (
	ErrNoHandler      = errors.New("cmam: message for unregistered handler")
	ErrNoSegment      = errors.New("cmam: packet for unknown segment")
	ErrSegmentOverrun = errors.New("cmam: transfer packet overruns segment buffer")
)

// NewEndpoint attaches a CMAM layer to a node.
func NewEndpoint(node *machine.Node) *Endpoint {
	ep := &Endpoint{node: node}
	ep.handlers, ep.sinks = ep.handlerRoom[:0], ep.sinkRoom[:0]
	return ep
}

// Node returns the underlying machine node.
func (ep *Endpoint) Node() *machine.Node { return ep.node }

// Register installs a handler; re-registering an id replaces it.
func (ep *Endpoint) Register(id HandlerID, h Handler) {
	for i := range ep.handlers {
		if ep.handlers[i].id == id {
			ep.handlers[i].h = h
			return
		}
	}
	ep.handlers = append(ep.handlers, handlerEntry{id, h})
}

// handler returns the handler registered for an id, nil if none.
func (ep *Endpoint) handler(id HandlerID) Handler {
	for _, e := range ep.handlers {
		if e.id == id {
			return e.h
		}
	}
	return nil
}

// sink returns the sink registered for a tag, nil if none.
func (ep *Endpoint) sink(tag network.Tag) TagSink {
	for _, e := range ep.sinks {
		if e.tag == tag {
			return e.sink
		}
	}
	return nil
}

// segment returns the live segment with an id, nil if none.
func (ep *Endpoint) segment(id SegmentID) *segment {
	if int(id) < len(ep.segs) {
		return ep.segs[id].seg
	}
	return nil
}

// RegisterTag installs a sink for a custom hardware tag. TagAM and TagXfer
// keep their built-in dispatch and cannot be overridden.
func (ep *Endpoint) RegisterTag(tag network.Tag, sink TagSink) error {
	if tag == TagAM || tag == TagXfer {
		return fmt.Errorf("cmam: tag %d is reserved", tag)
	}
	for i := range ep.sinks {
		if ep.sinks[i].tag == tag {
			ep.sinks[i].sink = sink
			return nil
		}
	}
	ep.sinks = append(ep.sinks, sinkEntry{tag, sink})
	return nil
}

// Send stages and pushes one packet, charging the bundle (if any) against
// the feature. Network backpressure and rejection are returned to the
// caller with the charge already applied — the instructions to attempt the
// send were really spent.
func (ep *Endpoint) Send(dst int, tag network.Tag, head network.Word, data []network.Word, f cost.Feature, charge cost.Items) error {
	if charge != nil {
		ep.node.Charge(f, charge)
	}
	fresh := ep.originate()
	sp := ep.node.Obs.StartSpan("cmam.send")
	nic := ep.node.NI
	nic.StageDest(dst, tag)
	nic.StageHead(head)
	if len(data) > 0 {
		nic.StageData(data...)
	}
	ep.stageTrace(nic)
	err := nic.Push()
	sp.End()
	if fresh {
		ep.node.Obs.SwapMsg(0)
	}
	if err == nil {
		ep.node.Obs.PacketSent()
	}
	return err
}

// originate gives a top-level send — one issued outside any protocol
// transfer or handler context — its own message identity, so even bare
// active messages (the single-packet delivery protocol) reconstruct as
// causal messages. Returns true when an identity was allocated; the caller
// clears the context after the send so it does not leak to later sends.
func (ep *Endpoint) originate() bool {
	obsScope := ep.node.Obs
	if obsScope.CurrentMsg() != 0 {
		return false
	}
	return obsScope.NewMsg() != 0
}

// stageTrace stamps the node's current message context into the staged
// packet: the message id, the innermost open span (which the cmam.send
// span just opened, making it the packet's causal parent at the receiver),
// and a fresh packet id. All zeros with no observer attached.
func (ep *Endpoint) stageTrace(nic *ni.NI) {
	msg, span := ep.node.Obs.MsgContext()
	if msg == 0 && span == 0 {
		return
	}
	nic.StageTrace(msg, span, ep.node.Obs.NewPkt())
}

// AM4 sends a CMAM_4 active message carrying up to four words, charging the
// paper's Table 1 source cost (20 instructions, Base).
func (ep *Endpoint) AM4(dst int, h HandlerID, args ...network.Word) error {
	if len(args) > ep.node.Sched.PacketWords {
		return fmt.Errorf("cmam: AM4 with %d args exceeds packet payload %d", len(args), ep.node.Sched.PacketWords)
	}
	return ep.Send(dst, TagAM, network.Word(h), args, cost.Base, ep.node.Sched.SendSingle)
}

// SendAM sends an active message charging an explicit bundle instead of the
// Table 1 cost — protocols use this for handshake and acknowledgement
// messages whose sends are attributed to buffer management or fault
// tolerance.
func (ep *Endpoint) SendAM(dst int, h HandlerID, f cost.Feature, charge cost.Items, args ...network.Word) error {
	return ep.Send(dst, TagAM, network.Word(h), args, f, charge)
}

// ReplyAM4 sends an active message on the node's reply network when one
// exists (falling back to the primary otherwise), charging the Table 1
// source cost. Sending replies on a separate network is how CMAM makes
// round-trip protocols deadlock-safe on the CM-5's finite buffering: a
// handler can always emit its reply even when the request network is
// completely full (the paper's footnote 6).
func (ep *Endpoint) ReplyAM4(dst int, h HandlerID, args ...network.Word) error {
	if len(args) > ep.node.Sched.PacketWords {
		return fmt.Errorf("cmam: ReplyAM4 with %d args exceeds packet payload %d", len(args), ep.node.Sched.PacketWords)
	}
	nic := ep.node.ReplyNI
	if nic == nil {
		nic = ep.node.NI
	}
	ep.node.Charge(cost.Base, ep.node.Sched.SendSingle)
	fresh := ep.originate()
	sp := ep.node.Obs.StartSpan("cmam.send")
	nic.StageDest(dst, TagAM)
	nic.StageHead(network.Word(h))
	if len(args) > 0 {
		nic.StageData(args...)
	}
	ep.stageTrace(nic)
	err := nic.Push()
	sp.End()
	if fresh {
		ep.node.Obs.SwapMsg(0)
	}
	if err == nil {
		ep.node.Obs.PacketSent()
	}
	return err
}

// AllocSegment associates a fresh segment id with a target buffer expecting
// expectWords words. The hooks run per arriving packet and at completion;
// either may be nil.
func (ep *Endpoint) AllocSegment(buf []network.Word, expectWords int, onPacket func(offset, words int), onDone func()) (SegmentID, error) {
	if expectWords < 0 || expectWords > len(buf) {
		return 0, fmt.Errorf("cmam: segment expects %d words into a %d-word buffer", expectWords, len(buf))
	}
	// Find a free id; segment ids are 16-bit like the head-word packing.
	for tries := 0; tries < maxSegment; tries++ {
		id := ep.nextSeg
		ep.nextSeg++
		if ep.segment(id) != nil {
			continue
		}
		if int(id) == len(ep.segs) {
			ep.segs = append(ep.segs, segSlot{})
		}
		// The id's previous life, if any, is over.
		ep.segs[id] = segSlot{seg: &segment{
			buf:       buf,
			remaining: expectWords,
			received:  make([]uint64, min(len(buf), maxOffset-1)/64+1),
			onPacket:  onPacket,
			onDone:    onDone,
		}}
		ep.node.Obs.SegmentAlloc()
		return id, nil
	}
	return 0, errors.New("cmam: no free segment ids")
}

// FreeSegment disassociates a segment id. The id is tombstoned: transfer
// packets that were retransmitted and arrive after the segment completed
// are silently discarded rather than treated as protocol errors. (Ids
// recycle after the 16-bit space wraps, the usual sequence-reuse caveat.)
func (ep *Endpoint) FreeSegment(id SegmentID) error {
	if ep.segment(id) == nil {
		return fmt.Errorf("%w: %d", ErrNoSegment, id)
	}
	ep.segs[id] = segSlot{freed: true}
	ep.node.Obs.SegmentFree()
	return nil
}

// SegmentRemaining reports the words a segment still expects.
func (ep *Endpoint) SegmentRemaining(id SegmentID) (int, error) {
	s := ep.segment(id)
	if s == nil {
		return 0, fmt.Errorf("%w: %d", ErrNoSegment, id)
	}
	return s.remaining, nil
}

// XferHead packs a segment id and word offset into a head word, the
// paper's trick for cheap in-order delivery: carrying the offset eliminates
// sequence numbers.
func XferHead(seg SegmentID, offset int) (network.Word, error) {
	if offset < 0 || offset >= maxOffset {
		return 0, fmt.Errorf("cmam: xfer offset %d outside the 16-bit head field", offset)
	}
	return network.Word(seg)<<16 | network.Word(offset), nil
}

// SendXfer sends one bulk-transfer data packet into (dst, seg) at a word
// offset, charging the bundle against the feature.
func (ep *Endpoint) SendXfer(dst int, seg SegmentID, offset int, data []network.Word, f cost.Feature, charge cost.Items) error {
	head, err := XferHead(seg, offset)
	if err != nil {
		return err
	}
	return ep.Send(dst, TagXfer, head, data, f, charge)
}

// Poll receives and dispatches waiting packets — the CMAM_request_poll /
// CMAM_handle_left / CMAM_got_left reception path. Up to budget packets are
// processed (budget <= 0 means all waiting), draining the reply network's
// interface as well when the node has one. Reception costs are charged by
// the dispatched handlers and segment hooks, keeping attribution with the
// protocol. Poll returns the number of packets dispatched.
func (ep *Endpoint) Poll(budget int) (int, error) {
	count := 0
	for budget <= 0 || count < budget {
		nic := ep.node.NI
		if !nic.RecvReady() {
			if ep.node.ReplyNI == nil || !ep.node.ReplyNI.RecvReady() {
				return count, nil
			}
			nic = ep.node.ReplyNI
		}
		if err := ep.dispatch(nic); err != nil {
			return count, err
		}
		ep.node.Obs.PacketReceived()
		count++
	}
	return count, nil
}

// dispatch consumes and routes the packet staged on one interface. When the
// packet carries observability identity, the handler runs inside a dispatch
// context: everything it records — including replies and acknowledgements it
// sends — is attributed to the packet's originating message, which is how
// causal identity crosses the network without per-protocol plumbing.
func (ep *Endpoint) dispatch(nic *ni.NI) error {
	msg, span, pkt := nic.RecvTrace()
	if msg == 0 && span == 0 {
		return ep.dispatchPacket(nic)
	}
	ctx := ep.node.HandleBegin(msg, span, pkt)
	err := ep.dispatchPacket(nic)
	ep.node.HandleEnd(ctx)
	return err
}

// dispatchPacket consumes and routes the packet staged on one interface.
func (ep *Endpoint) dispatchPacket(nic *ni.NI) error {
	src, tag, head := nic.ReadMeta()
	switch tag {
	case TagAM:
		h := ep.handler(HandlerID(head))
		if h == nil {
			nic.Discard()
			return fmt.Errorf("%w: id %d from node %d", ErrNoHandler, head, src)
		}
		data := nic.ReadData()
		h(src, data)
	case TagXfer:
		seg := SegmentID(head >> 16)
		offset := int(head & (maxOffset - 1))
		s := ep.segment(seg)
		if s == nil {
			if int(seg) < len(ep.segs) && ep.segs[seg].freed {
				// A retransmission landing after completion.
				nic.Discard()
				ep.node.Event("cmam.stale.xfer")
				return nil
			}
			nic.Discard()
			return fmt.Errorf("%w: %d from node %d", ErrNoSegment, seg, src)
		}
		data := nic.ReadData()
		if offset+len(data) > len(s.buf) {
			return fmt.Errorf("%w: offset %d + %d words into %d-word segment %d",
				ErrSegmentOverrun, offset, len(data), len(s.buf), seg)
		}
		copy(s.buf[offset:], data)
		if s.count(offset) {
			s.remaining -= len(data)
		}
		if s.onPacket != nil {
			s.onPacket(offset, len(data))
		}
		if s.remaining <= 0 && s.onDone != nil {
			done := s.onDone
			s.onDone = nil
			done()
		}
	default:
		sink := ep.sink(tag)
		if sink == nil {
			nic.Discard()
			return fmt.Errorf("cmam: packet with unknown tag %d from node %d", tag, src)
		}
		data := nic.ReadData()
		if err := sink(src, head, data); err != nil {
			return err
		}
	}
	return nil
}

// PollSingle receives and dispatches at most one waiting packet, charging
// the paper's Table 1 destination cost (27 instructions, Base) when a
// packet was processed. It is the single-packet delivery protocol's
// reception path.
func (ep *Endpoint) PollSingle() (bool, error) {
	n, err := ep.Poll(1)
	if n > 0 {
		ep.node.Charge(cost.Base, ep.node.Sched.RecvSingle)
	}
	return n > 0, err
}
