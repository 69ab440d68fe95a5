// Package network provides behavioral models of the two routing substrates
// the paper compares:
//
//   - CM5Net models the CM-5 data network's messaging-layer-visible
//     contract: packets between a pair of nodes may be delivered in
//     arbitrary order, buffering is finite (injection can backpressure),
//     and faults are detected (corrupt packets carry a failed CRC and are
//     discarded by the receiver) but never corrected.
//   - CRNet models a Compressionless-Routing substrate: delivery is
//     order-preserving per source/destination pair, packets are delivered
//     reliably (transient faults are retried invisibly by the hardware),
//     and a destination out of resources can reject a transfer's header
//     packet without deadlocking the network.
//
// These models carry real data end to end; the flit-level simulator in
// package flitnet demonstrates the router mechanisms that give rise to the
// same contracts and is cross-validated against these models.
package network

import (
	"errors"
	"fmt"
	"slices"
)

// Word is a 32-bit network word, the CM-5's transfer unit.
type Word uint32

// Tag is the hardware message tag used to vector received packets to
// handlers, mirroring the CM-5 NI tag field.
type Tag uint8

// Packet is one hardware packet: on the CM-5, five words — here one
// metadata head word plus up to PacketWords data words. The networks move
// packets by value at every hop, so a Packet is kept to 64 bytes: on amd64
// Go copies a struct that small with a few register moves, and a larger
// one with a call to runtime.duffcopy.
type Packet struct {
	Src, Dst int
	Head     Word // protocol metadata: handler id, segment/offset, sequence
	Tag      Tag
	// Corrupt marks a packet whose CRC check fails at the receiver. The
	// receiving NI detects and discards such packets; nothing in software
	// ever observes the payload.
	Corrupt bool
	Data    []Word // payload, at most the network's packet payload size

	// Trace is the observability identity stamped by the sending
	// messaging layer (see internal/obs), nil when tracing is off. The
	// substrates carry the pointer end to end but never interpret it.
	Trace *Trace

	flow uint64 // per-(src,dst) injection sequence, set by the network
}

// Trace is a packet's observability identity: the causal message the
// packet belongs to, the sender's open span (the packet's causal parent at
// the receiver), and the packet's own id. It is immutable once stamped, so
// every hop can share one record by pointer.
type Trace struct {
	Msg, Span, Pkt uint64
}

// IDs returns the record's ids, all zero for a nil record (an untraced
// packet).
func (t *Trace) IDs() (msg, span, pkt uint64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.Msg, t.Span, t.Pkt
}

// FlowSeq returns the packet's per-(src,dst) injection sequence number,
// assigned by the network at Inject time. Tests use it to verify ordering
// contracts.
func (p Packet) FlowSeq() uint64 { return p.flow }

// Injection and acceptance errors.
var (
	// ErrBackpressure reports that finite buffering toward the
	// destination is exhausted; the sender must retry later.
	ErrBackpressure = errors.New("network: injection backpressured, retry")
	// ErrRejected reports that the destination refused the packet at
	// acceptance time (Compressionless Routing header rejection).
	ErrRejected = errors.New("network: header packet rejected by destination")
	// ErrBadPacket reports a malformed injection request.
	ErrBadPacket = errors.New("network: malformed packet")
)

// Network is the substrate contract the messaging layers program against.
type Network interface {
	// Name identifies the substrate in reports.
	Name() string
	// Nodes returns the number of attached processing nodes.
	Nodes() int
	// PacketWords returns the payload capacity of one hardware packet.
	PacketWords() int
	// Inject attempts to insert a packet. It may fail with
	// ErrBackpressure (finite buffering) or ErrRejected (CR header
	// rejection); both leave the network unchanged. Inject copies the
	// payload: the caller may reuse p.Data once it returns.
	Inject(p Packet) error
	// TryRecv pops the next deliverable packet for a node, reporting
	// false when nothing is deliverable. The packet's Data belongs to the
	// receiver: the network keeps no reference and never writes it again.
	TryRecv(node int) (Packet, bool)
	// Pending returns the number of packets somewhere in the network.
	Pending() int
	// Stats returns cumulative counters.
	Stats() Stats
}

// Stats are cumulative network counters.
type Stats struct {
	Injected     uint64
	Delivered    uint64
	Dropped      uint64 // lost to injected faults (CM5Net only)
	CorruptSeen  uint64 // delivered with a failed CRC (CM5Net only)
	Backpressure uint64 // Inject calls refused for lack of buffering
	Rejected     uint64 // header packets refused by the destination
	HWRetries    uint64 // transparent hardware retries (CRNet only)
}

func (s Stats) String() string {
	return fmt.Sprintf("injected=%d delivered=%d dropped=%d corrupt=%d backpressure=%d rejected=%d hwretries=%d",
		s.Injected, s.Delivered, s.Dropped, s.CorruptSeen, s.Backpressure, s.Rejected, s.HWRetries)
}

// validate checks an injection request against the substrate geometry.
func validate(p Packet, nodes, packetWords int) error {
	if p.Src < 0 || p.Src >= nodes || p.Dst < 0 || p.Dst >= nodes {
		return fmt.Errorf("%w: src=%d dst=%d with %d nodes", ErrBadPacket, p.Src, p.Dst, nodes)
	}
	if len(p.Data) > packetWords {
		return fmt.Errorf("%w: %d payload words exceeds packet size %d", ErrBadPacket, len(p.Data), packetWords)
	}
	return nil
}

// A delivery queue's chunks hold as many packets as the queue does when
// the chunk is taken, from minChunkPackets up to maxChunkPackets.
const (
	minChunkPackets = 4
	maxChunkPackets = 64
)

// fifo is a packet queue stored in chunks, the way payload slabs store
// words: a growing queue takes a new chunk instead of regrowing and
// copying one buffer, and keeps the larger chunk it drained for reuse, so
// it holds O(max backlog) packets however many pass through it.
type fifo struct {
	chunks [][]Packet // in queue order, each filled to its length
	head   int        // the next packet to pop, in chunks[0]
	n      int        // packets queued
	spare  []Packet   // an empty drained chunk
}

func (q *fifo) len() int { return q.n }

func (q *fifo) push(p Packet) {
	last := len(q.chunks) - 1
	if last < 0 || len(q.chunks[last]) == cap(q.chunks[last]) {
		q.chunks = append(q.chunks, q.chunk())
		last++
	}
	q.chunks[last] = append(q.chunks[last], p)
	q.n++
}

// chunk returns an empty chunk: the spare, or a new one.
func (q *fifo) chunk() []Packet {
	if c := q.spare; c != nil {
		q.spare = nil
		return c
	}
	return make([]Packet, 0, min(max(q.n, minChunkPackets), maxChunkPackets))
}

// pop removes the packet at the head, zeroing its slot so the queue keeps
// no reference to the delivered payload.
func (q *fifo) pop() (Packet, bool) {
	if q.n == 0 {
		return Packet{}, false
	}
	c := q.chunks[0]
	p := c[q.head]
	c[q.head] = Packet{}
	q.head++
	q.n--
	if q.head == len(c) {
		q.head = 0
		if len(q.chunks) == 1 {
			q.chunks[0] = c[:0] // refill the only chunk from its start
		} else {
			if cap(c) > cap(q.spare) {
				q.spare = c[:0]
			}
			q.chunks = slices.Delete(q.chunks, 0, 1)
		}
	}
	return p, true
}

// Slabs start at minSlabWords and double up to maxSlabWords, so a holder
// that copies a few packets allocates little and a busy one allocates once
// per maxSlabWords payload words.
const (
	minSlabWords = 16
	maxSlabWords = 256
)

// Slab hands out payload copies carved from word slabs instead of
// allocating one per packet. Slab words are never handed out twice: a
// copy belongs to whoever took it, who may keep or modify it. The networks
// copy injected payloads with one (a delivered packet's Data belongs to
// the receiver), and the stream protocols their retransmission and
// backpressure copies. The zero value is ready to use.
type Slab struct {
	free []Word
	size int // words in the current slab
}

// Clone copies data so callers can reuse their buffers once it returns.
// The copy's capacity is clipped to its length, so an append by its owner
// reallocates instead of overwriting the next copy.
func (s *Slab) Clone(data []Word) []Word {
	if len(data) == 0 {
		return nil
	}
	if len(data) > len(s.free) {
		s.size = min(max(2*s.size, minSlabWords), maxSlabWords)
		s.free = make([]Word, max(s.size, len(data)))
	}
	out := s.free[:len(data):len(data)]
	copy(out, data)
	s.free = s.free[len(data):]
	return out
}
