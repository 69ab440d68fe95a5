// Package crmsg implements the paper's Section 4 messaging layer: the same
// three protocols rebuilt on a routing substrate with Compressionless-
// Routing-style high-level services — order-preserving transmission,
// deadlock freedom independent of packet acceptance, and fault-tolerant
// packet delivery.
//
// With those services in hardware, the software collapses to data movement:
//
//   - Finite-sequence transfers (Figure 5) need no allocation handshake
//     (the destination may reject a transfer's header packet without
//     deadlocking the network), no offsets or sequence numbers (the
//     network preserves order), and no acknowledgement (injection implies
//     delivery). Buffer management shrinks to storing the buffer pointer
//     in a table.
//   - Indefinite-sequence streams (Figure 7) are bare packet injections.
//   - Single-packet delivery costs exactly what it costs on the CM-5 — but
//     now meets all the user communication requirements.
package crmsg

import (
	"errors"
	"fmt"
	"slices"

	"msglayer/internal/cmam"
	"msglayer/internal/cost"
	"msglayer/internal/network"
)

// Hardware tags used by the CR layer.
const (
	// TagHead marks a finite transfer's header packet: its head word
	// carries the transfer id and total size, and the destination's
	// resource check may reject it.
	TagHead network.Tag = 4
	// TagData marks subsequent finite-transfer data packets.
	TagData network.Tag = 5
	// TagStream marks indefinite-sequence stream packets.
	TagStream network.Tag = 6
)

// retryProbe is the status-check cost of discovering a rejected or
// backpressured injection; like the CMAM layer's retry path it lies outside
// the paper's minimal-cost tables.
var retryProbe = cost.Items{
	{Cat: cost.Dev, Sub: cost.SubNIStatus, N: 1},
	{Cat: cost.Reg, Sub: cost.SubNIStatus, N: 2},
}

// AcceptorSetter is the piece of the CR substrate the receiver uses to
// install its header-acceptance check; *network.CRNet implements it.
type AcceptorSetter interface {
	SetAcceptor(node int, a network.Acceptor) error
}

// FiniteConfig tunes a CR finite-transfer service.
type FiniteConfig struct {
	// MaxConcurrent bounds simultaneously open incoming transfers; header
	// packets beyond it are rejected (and retried by the sender). Zero
	// means unbounded.
	MaxConcurrent int
	// OnReceive is invoked at the destination when a transfer completes.
	OnReceive func(src int, data []network.Word)
	// Allocate provides destination buffers; defaults to make.
	Allocate func(words int) []network.Word
}

// Finite is the per-node CR finite-sequence service (Figure 5).
type Finite struct {
	ep  *cmam.Endpoint
	cfg FiniteConfig

	nextID uint16
	// A node has a few transfers open at a time, so they sit in lists:
	// outgoing in start order, incoming in header-arrival order.
	outgoing []*Transfer
	incoming []*inXfer
	err      error
}

type inXfer struct {
	src    int
	id     uint16
	buf    []network.Word
	cursor int
}

// Transfer is the source-side state of one CR finite transfer.
type Transfer struct {
	f        *Finite
	id       uint16
	dst      int
	data     []network.Word
	sent     int  // words injected (header counts its payload)
	headerIn bool // header accepted by the destination
	rejected uint64
	msg      uint64 // observability message identity, 0 when untraced
}

const maxWords = 1 << 16 // the head word carries a 16-bit size

// NewFinite installs the CR finite-sequence protocol on an endpoint whose
// machine runs over a CR substrate. The acceptance check is installed on
// the substrate if it supports one.
func NewFinite(ep *cmam.Endpoint, sub network.Network, cfg FiniteConfig) (*Finite, error) {
	if cfg.Allocate == nil {
		cfg.Allocate = func(words int) []network.Word { return make([]network.Word, words) }
	}
	f := &Finite{ep: ep, cfg: cfg}
	if err := ep.RegisterTag(TagHead, f.sinkHead); err != nil {
		return nil, err
	}
	if err := ep.RegisterTag(TagData, f.sinkData); err != nil {
		return nil, err
	}
	if setter, ok := sub.(AcceptorSetter); ok {
		if err := setter.SetAcceptor(ep.Node().ID, f.accept); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// accept is the hardware-level resource check consulted when a header
// packet begins to arrive. Rejection costs the receiver nothing: the
// message path is torn down in the network.
func (f *Finite) accept(p network.Packet) bool {
	if p.Tag != TagHead {
		return true
	}
	return f.cfg.MaxConcurrent <= 0 || len(f.incoming) < f.cfg.MaxConcurrent
}

func (f *Finite) sched() *cost.Schedule { return f.ep.Node().Sched }

// Start begins a transfer. Unlike the CMAM protocol there is no handshake:
// the first (header) packet carries the size, and once every packet is
// injected the data is guaranteed delivered — no source buffering, no
// acknowledgement.
func (f *Finite) Start(dst int, data []network.Word) (*Transfer, error) {
	if len(data) == 0 {
		return nil, errors.New("crmsg: finite transfer of zero words")
	}
	if len(data) >= maxWords {
		return nil, fmt.Errorf("crmsg: finite transfer of %d words exceeds the %d-word size field",
			len(data), maxWords)
	}
	t := &Transfer{f: f, id: f.nextID, dst: dst, data: data}
	f.nextID++
	f.outgoing = append(f.outgoing, t)
	// One transfer is one causal message, from the header injection through
	// the last packet.
	obsScope := f.ep.Node().Obs
	prevMsg := obsScope.CurrentMsg()
	t.msg = obsScope.NewMsg()
	f.ep.Node().Charge(cost.Base, f.sched().CRXferSendFixed)
	f.ep.Node().Event("crfinite.start")
	err := f.pumpOne(t)
	obsScope.SwapMsg(prevMsg)
	f.retire()
	return t, err
}

// Done reports whether every packet has been injected — which, on this
// substrate, is delivery.
func (t *Transfer) Done() bool { return t.headerIn && t.sent >= len(t.data) }

// Rejections returns how many times the destination rejected the header.
func (t *Transfer) Rejections() uint64 { return t.rejected }

// Pump advances all outgoing transfers and polls for incoming packets.
func (f *Finite) Pump() error {
	if _, err := f.ep.Poll(0); err != nil {
		return err
	}
	if f.err != nil {
		err := f.err
		f.err = nil
		return err
	}
	// Transfers that finish are dropped after the pass, so the loop sees
	// the list it started with.
	defer f.retire()
	for _, t := range f.outgoing {
		prev := f.ep.Node().Obs.SwapMsg(t.msg)
		err := f.pumpOne(t)
		f.ep.Node().Obs.SwapMsg(prev)
		if err != nil {
			return err
		}
	}
	return nil
}

// retire drops the transfers whose every packet is injected.
func (f *Finite) retire() {
	f.outgoing = slices.DeleteFunc(f.outgoing, (*Transfer).Done)
}

// Step adapts a transfer to machine.Stepper semantics.
func (t *Transfer) Step() (bool, error) {
	if err := t.f.Pump(); err != nil {
		return false, err
	}
	return t.Done(), nil
}

func (f *Finite) pumpOne(t *Transfer) error {
	n := f.sched().PacketWords
	node := f.ep.Node()
	for !t.Done() {
		end := t.sent + n
		if end > len(t.data) {
			end = len(t.data)
		}
		var err error
		if !t.headerIn {
			head := network.Word(t.id)<<16 | network.Word(len(t.data))
			err = f.ep.Send(t.dst, TagHead, head, t.data[t.sent:end], cost.Base, nil)
		} else {
			err = f.ep.Send(t.dst, TagData, network.Word(t.id), t.data[t.sent:end], cost.Base, nil)
		}
		switch {
		case errors.Is(err, network.ErrRejected):
			// The destination had no resources; the path was torn down
			// and the packet never entered the network. Retry later.
			t.rejected++
			node.Charge(cost.Base, f.sched().CRRetryBookkeep)
			node.Charge(cost.Base, retryProbe)
			node.Event("crfinite.rejected")
			return nil
		case errors.Is(err, network.ErrBackpressure):
			node.Charge(cost.Base, retryProbe)
			node.Event("crfinite.backpressure")
			return nil
		case err != nil:
			return err
		}
		node.Charge(cost.Base, f.sched().CRXferSendPacket)
		node.Event("crfinite.packet.sent")
		t.headerIn = true
		t.sent = end
	}
	if t.sent >= len(t.data) {
		// Source-side completion marker: on this substrate injection is
		// delivery, so the last packet entering the network completes the
		// transfer as seen from the source. The event charges nothing; it
		// closes the crfinite.xfer.src observability span.
		node.Event("crfinite.complete")
	}
	return nil
}

// sinkHead receives a transfer's header packet: allocate, register, store.
func (f *Finite) sinkHead(src int, head network.Word, data []network.Word) error {
	node := f.ep.Node()
	id := uint16(head >> 16)
	words := int(head & (maxWords - 1))
	if words <= 0 {
		return fmt.Errorf("crmsg: header from node %d with size %d", src, words)
	}
	if f.open(src, id) != nil {
		return fmt.Errorf("crmsg: duplicate header for transfer %d from node %d", id, src)
	}

	// Fixed reception-path setup plus the whole of buffer management:
	// store the buffer pointer in the transfer table. The allocation
	// itself is excluded, as in the paper.
	node.Charge(cost.Base, f.sched().CRXferRecvFixed)
	node.Charge(cost.BufferMgmt, f.sched().CRBufferRegister)
	in := &inXfer{src: src, id: id, buf: f.cfg.Allocate(words)}
	f.incoming = append(f.incoming, in)
	node.Event("crfinite.header.recv")

	return f.store(src, in, data)
}

// open returns the incoming transfer id from src, nil if none is open.
func (f *Finite) open(src int, id uint16) *inXfer {
	for _, in := range f.incoming {
		if in.src == src && in.id == id {
			return in
		}
	}
	return nil
}

// sinkData receives subsequent packets in order.
func (f *Finite) sinkData(src int, head network.Word, data []network.Word) error {
	in := f.open(src, uint16(head))
	if in == nil {
		return fmt.Errorf("crmsg: data for unknown transfer %d from node %d", head, src)
	}
	return f.store(src, in, data)
}

// store places a packet's payload at the cursor — in-order delivery makes
// offsets unnecessary — and finishes the transfer on the last packet.
func (f *Finite) store(src int, in *inXfer, data []network.Word) error {
	node := f.ep.Node()
	node.Charge(cost.Base, f.sched().CRXferRecvPacket)
	node.Event("crfinite.packet.recv")
	if in.cursor+len(data) > len(in.buf) {
		return fmt.Errorf("crmsg: transfer %d from node %d overruns its %d-word buffer",
			in.id, src, len(in.buf))
	}
	copy(in.buf[in.cursor:], data)
	in.cursor += len(data)
	if in.cursor == len(in.buf) {
		// The arrival of the last packet invokes the specialized
		// last-packet handler.
		node.Charge(cost.Base, f.sched().CRLastPacket)
		f.incoming = slices.DeleteFunc(f.incoming, func(o *inXfer) bool { return o == in })
		node.Event("crfinite.done")
		if f.cfg.OnReceive != nil {
			f.cfg.OnReceive(src, in.buf)
		}
	}
	return nil
}
