package protocols

import (
	"errors"
	"fmt"
	"slices"

	"msglayer/internal/cmam"
	"msglayer/internal/cost"
	"msglayer/internal/network"
)

// FiniteID identifies one finite-sequence transfer, unique per source node.
type FiniteID uint16

// Finite is the per-node service implementing the finite-sequence
// multi-packet protocol of the paper's Figure 3:
//
//  1. the sender requests buffer allocation at the receiver,
//  2. the receiver allocates a communication segment,
//  3. and replies with the segment id,
//  4. the sender streams offset-carrying data packets,
//  5. the receiver deallocates the segment on completion,
//  6. and acknowledges, letting the sender release its copy of the data.
//
// Steps 1, 2, 3, and 5 are charged to buffer management, the carried
// offsets to in-order delivery, step 6 to fault tolerance, and the data
// packets to base cost — exactly the paper's attribution.
type Finite struct {
	ep *cmam.Endpoint

	// OnReceive is invoked at the destination when a transfer completes,
	// with the source node and the filled buffer. It runs at user level
	// and is not charged to the messaging layer.
	OnReceive func(src int, data []network.Word)
	// Allocate provides destination buffers; defaults to make. The
	// allocation itself is excluded from protocol cost, as in the paper.
	Allocate func(words int) []network.Word
	// RetransmitAfter is the number of consecutive Pump calls without
	// progress after which a stalled transfer retries its current step
	// (allocation request, data packets, or waiting for the lost
	// acknowledgement). Zero disables the timeout — the paper's minimal
	// fault-free path. Retransmissions are charged to fault tolerance;
	// the receiver deduplicates by transfer id and carried offsets, so
	// resends are idempotent.
	RetransmitAfter int

	nextID   FiniteID
	outgoing []*FiniteTransfer // unacknowledged transfers, in start order
	// incoming[src][id] is the receiver's dedup record of transfer id from
	// src. A source numbers its transfers in order, so each row grows with
	// the transfers that source started.
	incoming [][]finIncoming
	err      error // first deferred handler-side error
}

// finIncoming is the receiver's dedup record for one transfer.
type finIncoming struct {
	seg   cmam.SegmentID
	known bool
	done  bool
}

// record returns the dedup record of transfer id from src, growing the
// table to hold it.
func (f *Finite) record(src int, id FiniteID) *finIncoming {
	for len(f.incoming) <= src {
		f.incoming = append(f.incoming, nil)
	}
	row := f.incoming[src]
	for len(row) <= int(id) {
		row = append(row, finIncoming{})
	}
	f.incoming[src] = row
	return &row[id]
}

// transfer returns the unacknowledged outgoing transfer with an id, nil if
// none.
func (f *Finite) transfer(id FiniteID) *FiniteTransfer {
	for _, t := range f.outgoing {
		if t.id == id {
			return t
		}
	}
	return nil
}

// drop removes an acknowledged transfer from the outgoing list.
func (f *Finite) drop(t *FiniteTransfer) {
	if i := slices.Index(f.outgoing, t); i >= 0 {
		f.outgoing = slices.Delete(f.outgoing, i, i+1)
	}
}

// Transfer states.
const (
	finiteWaitReply = iota
	finiteSending
	finiteWaitAck
	finiteDone
)

// FiniteTransfer is the source-side state of one transfer.
type FiniteTransfer struct {
	f     *Finite
	id    FiniteID
	dst   int
	data  []network.Word
	state int
	seg   cmam.SegmentID
	sent  int    // words injected so far
	msg   uint64 // observability message identity, 0 when untraced

	idle      int // pumps without progress, for the retransmission timeout
	lastState int
	lastSent  int
	resend    int // where a backpressured retransmission resumes; 0 when none is pending
}

// Transfer-size limits imposed by the 16-bit offset field of the xfer head
// word.
const maxFiniteWords = 1 << 16

// NewFinite installs the finite-sequence protocol on an endpoint. Every
// node that sends or receives finite transfers needs its own instance.
func NewFinite(ep *cmam.Endpoint) *Finite {
	f := &Finite{
		ep:       ep,
		Allocate: func(words int) []network.Word { return make([]network.Word, words) },
	}
	ep.Register(HFiniteAllocReq, f.handleAllocReq)
	ep.Register(HFiniteAllocReply, f.handleAllocReply)
	ep.Register(HFiniteAck, f.handleAck)
	return f
}

// Start begins transferring data to dst (step 1). The data slice must stay
// unmodified until the transfer completes: the protocol's fault-tolerance
// guarantee is that the source retains the message until acknowledged.
func (f *Finite) Start(dst int, data []network.Word) (*FiniteTransfer, error) {
	if len(data) == 0 {
		return nil, errors.New("protocols: finite transfer of zero words")
	}
	if len(data) >= maxFiniteWords {
		return nil, fmt.Errorf("protocols: finite transfer of %d words exceeds the %d-word offset field",
			len(data), maxFiniteWords)
	}
	t := &FiniteTransfer{f: f, id: f.nextID, dst: dst, data: data, state: finiteWaitReply}
	f.nextID++
	f.outgoing = append(f.outgoing, t)

	// The transfer is one causal message: everything from here to the final
	// acknowledgement attributes to this identity.
	obsScope := f.ep.Node().Obs
	prevMsg := obsScope.CurrentMsg()
	t.msg = obsScope.NewMsg()

	// Step 1: allocation request, charged to buffer management.
	err := f.ep.SendAM(dst, HFiniteAllocReq, cost.BufferMgmt, f.sched().AllocRequestSend,
		network.Word(t.id), network.Word(len(data)))
	if err != nil {
		obsScope.SwapMsg(prevMsg)
		f.drop(t)
		return nil, err
	}
	f.ep.Node().Event("finite.start")
	obsScope.SwapMsg(prevMsg)
	return t, nil
}

// Done reports whether the transfer has been acknowledged.
func (t *FiniteTransfer) Done() bool { return t.state == finiteDone }

// Pump advances the protocol: it polls the endpoint for incoming packets
// and pushes outgoing data for transfers in the sending state. Call it
// repeatedly (for example from a machine.Stepper) until transfers report
// Done.
func (f *Finite) Pump() error {
	if _, err := f.ep.Poll(0); err != nil {
		return err
	}
	if f.err != nil {
		err := f.err
		f.err = nil
		return err
	}
	for _, t := range f.outgoing {
		if err := t.pump(); err != nil {
			return err
		}
	}
	return nil
}

// pump advances one outgoing transfer inside its message context, so data
// packets, backpressure probes, and retransmissions attribute to the
// transfer they belong to.
func (t *FiniteTransfer) pump() error {
	obsScope := t.f.ep.Node().Obs
	prev := obsScope.SwapMsg(t.msg)
	defer obsScope.SwapMsg(prev)
	if t.state == finiteSending {
		if err := t.pumpSend(); err != nil {
			return err
		}
	}
	return t.checkTimeout()
}

// checkTimeout applies the retransmission timeout to a stalled transfer.
func (t *FiniteTransfer) checkTimeout() error {
	if t.f.RetransmitAfter <= 0 || t.state == finiteDone {
		return nil
	}
	if t.resend > 0 {
		return t.retransmit()
	}
	if t.state != t.lastState || t.sent != t.lastSent {
		t.lastState, t.lastSent = t.state, t.sent
		t.idle = 0
		return nil
	}
	t.idle++
	if t.idle < t.f.RetransmitAfter {
		return nil
	}
	t.idle = 0
	node := t.f.ep.Node()
	switch t.state {
	case finiteWaitReply:
		// The allocation request or its reply was lost: re-request. The
		// receiver deduplicates by transfer id.
		node.Charge(cost.FaultTol, t.f.sched().Retransmit)
		err := t.f.ep.SendAM(t.dst, HFiniteAllocReq, cost.FaultTol, nil,
			network.Word(t.id), network.Word(len(t.data)))
		if err != nil && !errors.Is(err, network.ErrBackpressure) {
			return err
		}
		node.Event("finite.retry.alloc")
	case finiteWaitAck:
		return t.retransmit()
	}
	return nil
}

// retransmit resends the retained copy from offset t.resend, then probes:
// data packets or the acknowledgement were lost. Carried offsets make
// duplicates idempotent, and a receiver that already completed
// re-acknowledges when probed. A backpressured resend or probe leaves
// t.resend where it stopped and resumes there on the next pump, so bounded
// buffering cannot cut off the packets past the bound or the probe.
func (t *FiniteTransfer) retransmit() error {
	node := t.f.ep.Node()
	n := t.f.sched().PacketWords
	for t.resend < len(t.data) {
		end := min(t.resend+n, len(t.data))
		node.Charge(cost.FaultTol, t.f.sched().Retransmit)
		err := t.f.ep.SendXfer(t.dst, t.seg, t.resend, t.data[t.resend:end], cost.FaultTol, nil)
		if errors.Is(err, network.ErrBackpressure) {
			node.Charge(cost.Base, retryProbe)
			return nil
		}
		if err != nil {
			return err
		}
		t.resend = end
	}
	// Probe with the (deduplicated) allocation request so a receiver
	// that already completed re-acknowledges a lost ack.
	err := t.f.ep.SendAM(t.dst, HFiniteAllocReq, cost.FaultTol, nil,
		network.Word(t.id), network.Word(len(t.data)))
	if errors.Is(err, network.ErrBackpressure) {
		return nil
	}
	if err != nil {
		return err
	}
	t.resend = 0
	node.Event("finite.retry.data")
	return nil
}

// Step adapts Pump to machine.Stepper semantics for a single transfer.
func (t *FiniteTransfer) Step() (bool, error) {
	if err := t.f.Pump(); err != nil {
		return false, err
	}
	return t.Done(), nil
}

func (f *Finite) sched() *cost.Schedule { return f.ep.Node().Sched }

// pumpSend injects data packets (step 4) until done or backpressured.
func (t *FiniteTransfer) pumpSend() error {
	n := t.f.sched().PacketWords
	node := t.f.ep.Node()
	for t.sent < len(t.data) {
		end := t.sent + n
		if end > len(t.data) {
			end = len(t.data)
		}
		err := t.f.ep.SendXfer(t.dst, t.seg, t.sent, t.data[t.sent:end], cost.Base, nil)
		if errors.Is(err, network.ErrBackpressure) {
			node.Charge(cost.Base, retryProbe)
			node.Event("finite.backpressure")
			return nil // try again next pump
		}
		if err != nil {
			return err
		}
		// Base per-packet injection cost plus the in-order offset
		// bookkeeping the carried-offset scheme costs the source.
		node.Charge(cost.Base, t.f.sched().XferSendPacket)
		node.Charge(cost.InOrder, t.f.sched().OffsetPerPacket)
		node.Event("finite.packet.sent")
		t.sent = end
	}
	t.state = finiteWaitAck
	return nil
}

// handleAllocReq runs at the destination (step 2 and 3).
func (f *Finite) handleAllocReq(src int, args []network.Word) {
	node := f.ep.Node()
	node.Charge(cost.BufferMgmt, f.sched().AllocRequestRecv)
	node.Event("finite.allocreq.recv")
	if len(args) != 2 {
		f.err = fmt.Errorf("protocols: malformed alloc request from node %d: %v", src, args)
		return
	}
	id := FiniteID(args[0])
	words := int(args[1])
	if words <= 0 || words >= maxFiniteWords {
		f.err = fmt.Errorf("protocols: alloc request from node %d for %d words", src, words)
		return
	}

	// Deduplicate retransmitted requests: re-reply (segment still open) or
	// re-acknowledge (transfer already completed, the ack was lost).
	if in := f.record(src, id); in.known {
		node.Charge(cost.FaultTol, f.sched().Retransmit)
		if in.done {
			if err := f.ep.SendAM(src, HFiniteAck, cost.FaultTol, f.sched().XferAckSend,
				network.Word(id)); err != nil && !errors.Is(err, network.ErrBackpressure) {
				f.err = err
			}
			node.Event("finite.reack")
		} else {
			if err := f.ep.SendAM(src, HFiniteAllocReply, cost.FaultTol, f.sched().AllocReplySend,
				network.Word(id), network.Word(in.seg)); err != nil && !errors.Is(err, network.ErrBackpressure) {
				f.err = err
			}
			node.Event("finite.rereply")
		}
		return
	}

	buf := f.Allocate(words)

	// Fixed destination-side reception setup: the receive path and the
	// offset/count tracking are established once per transfer.
	node.Charge(cost.Base, f.sched().XferRecvFixed)
	node.Charge(cost.InOrder, f.sched().OffsetTrackFixed)

	// Step 2: associate a segment with the target buffer.
	node.Charge(cost.BufferMgmt, f.sched().SegmentAllocate)
	node.Event("finite.segment.alloc")
	f.record(src, id).known = true
	var seg cmam.SegmentID
	seg, allocErr := f.ep.AllocSegment(buf, words,
		func(offset, words int) {
			node.Charge(cost.Base, f.sched().XferRecvPacket)
			node.Charge(cost.InOrder, f.sched().OffsetTrackPacket)
			node.Event("finite.packet.recv")
		},
		func() {
			// Step 5: free the communication segment.
			f.record(src, id).done = true
			node.Charge(cost.BufferMgmt, f.sched().SegmentDeallocate)
			node.Event("finite.segment.free")
			if err := f.ep.FreeSegment(seg); err != nil {
				f.err = err
				return
			}
			// Step 6: acknowledge, releasing the sender's copy.
			if err := f.ep.SendAM(src, HFiniteAck, cost.FaultTol, f.sched().XferAckSend,
				network.Word(id)); err != nil {
				f.err = err
				return
			}
			node.Event("finite.ack.sent")
			if f.OnReceive != nil {
				f.OnReceive(src, buf)
			}
		})
	if allocErr != nil {
		f.err = allocErr
		return
	}
	f.record(src, id).seg = seg

	// Step 3: reply with the segment id.
	if err := f.ep.SendAM(src, HFiniteAllocReply, cost.BufferMgmt, f.sched().AllocReplySend,
		network.Word(id), network.Word(seg)); err != nil {
		f.err = err
		return
	}
	node.Event("finite.reply.sent")
}

// handleAllocReply runs at the source (end of step 3).
func (f *Finite) handleAllocReply(src int, args []network.Word) {
	node := f.ep.Node()
	node.Charge(cost.BufferMgmt, f.sched().AllocReplyRecv)
	node.Event("finite.reply.recv")
	if len(args) != 2 {
		f.err = fmt.Errorf("protocols: malformed alloc reply from node %d: %v", src, args)
		return
	}
	t := f.transfer(FiniteID(args[0]))
	if t == nil || t.state != finiteWaitReply {
		// A duplicate reply from the retransmission path; harmless.
		node.Event("finite.stale.reply")
		return
	}
	t.seg = cmam.SegmentID(args[1])
	t.state = finiteSending
	// Fixed source-side send-path setup.
	node.Charge(cost.Base, f.sched().XferSendFixed)
}

// handleAck runs at the source (end of step 6).
func (f *Finite) handleAck(src int, args []network.Word) {
	node := f.ep.Node()
	node.Charge(cost.FaultTol, f.sched().XferAckRecv)
	if len(args) != 1 {
		f.err = fmt.Errorf("protocols: malformed ack from node %d: %v", src, args)
		return
	}
	t := f.transfer(FiniteID(args[0]))
	if t == nil || t.state != finiteWaitAck {
		// A duplicate acknowledgement from the retransmission path.
		node.Event("finite.stale.ack")
		return
	}
	t.state = finiteDone
	t.data = nil // the retained copy may now be released
	f.drop(t)
	node.Event("finite.ack.recv")
}
