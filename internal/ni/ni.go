// Package ni simulates the CM-5-style memory-mapped network interface of
// the paper's Figure 2: control/status registers and send/receive FIFOs on
// the processor-memory bus. A packet is injected by storing the destination
// node number and data words to the send buffer and confirming via a status
// read; packets are extracted with loads from the receive buffer.
//
// The NI moves real data between the processor and the network model. It
// does not charge instruction costs itself — the messaging layers charge
// calibrated bundles per protocol event (see internal/cost) — but it counts
// raw device accesses so tests can cross-check that the calibrated dev
// charges track actual NI traffic.
package ni

import (
	"errors"
	"fmt"

	"msglayer/internal/network"
)

// Access counters for the memory-mapped register file.
type Access struct {
	Writes      uint64 // stores to the send FIFO and control registers
	Reads       uint64 // loads from the receive FIFO
	StatusReads uint64 // loads of the status register
	CRCErrors   uint64 // corrupt packets detected and discarded on receive
}

// NI is one node's network interface.
type NI struct {
	node int
	net  network.Network

	// Send staging registers.
	sendDst    int
	sendTag    network.Tag
	sendHead   network.Word
	sendData   []network.Word
	sendStaged bool

	// Observability identity staged alongside the packet (StageTrace).
	// Pure simulator-side metadata: staging it models no device access and
	// costs no Access counters, so the calibrated dev-charge cross-checks
	// are unaffected.
	sendTrace network.Trace
	// traces is the unused rest of a chunk of identity records: a traced
	// packet carries a pointer to one, so tracing costs one allocation per
	// chunk of packets instead of one per packet.
	traces []network.Trace

	// Receive staging register: the packet at the head of the FIFO.
	recv      network.Packet
	recvValid bool

	access Access
}

// ErrNothingStaged reports a push with no staged destination.
var ErrNothingStaged = errors.New("ni: push with no staged packet")

// New attaches a network interface for the given node.
func New(node int, net network.Network) (*NI, error) {
	if node < 0 || node >= net.Nodes() {
		return nil, fmt.Errorf("ni: node %d out of range for %d-node network", node, net.Nodes())
	}
	return &NI{node: node, net: net, sendDst: -1}, nil
}

// NewSet attaches one network interface to every node of net, node id
// order, in one allocation; their send staging buffers, one packet payload
// each, share a second.
func NewSet(net network.Network) []NI {
	nodes, pw := net.Nodes(), net.PacketWords()
	set := make([]NI, nodes)
	stage := make([]network.Word, nodes*pw)
	for id := range set {
		set[id] = NI{node: id, net: net, sendDst: -1, sendData: stage[id*pw : id*pw : (id+1)*pw]}
	}
	return set
}

// MustNew is New that panics on bad arguments.
func MustNew(node int, net network.Network) *NI {
	n, err := New(node, net)
	if err != nil {
		panic(err)
	}
	return n
}

// Node returns the attached node id.
func (n *NI) Node() int { return n.node }

// Accesses returns the raw device-access counters.
func (n *NI) Accesses() Access { return n.access }

// StageDest stores the destination node number and message tag to the send
// buffer (one device store). Staging a destination begins a fresh packet:
// any previously staged head or data words are discarded, so a sender that
// failed to push can either retry Push as-is or simply stage the packet
// again from scratch.
func (n *NI) StageDest(dst int, tag network.Tag) {
	n.access.Writes++
	n.sendDst = dst
	n.sendTag = tag
	n.sendHead = 0
	n.sendData = n.sendData[:0]
	n.sendStaged = true
	n.sendTrace = network.Trace{}
}

// StageTrace attaches observability identity (message, parent span, packet
// id) to the staged packet. It models no device access — tracing must not
// perturb the Access counters the dev-charge cross-checks audit — and is
// cleared by StageDest along with the rest of the staging registers.
func (n *NI) StageTrace(msg, span, pkt uint64) {
	n.sendTrace = network.Trace{Msg: msg, Span: span, Pkt: pkt}
}

// StageHead stores the protocol metadata word (one device store).
func (n *NI) StageHead(head network.Word) {
	n.access.Writes++
	n.sendHead = head
}

// StageData stores payload words to the send buffer using double-word
// stores: every two words cost one device store.
func (n *NI) StageData(words ...network.Word) {
	n.access.Writes += uint64(len(words)+1) / 2
	n.sendData = append(n.sendData, words...)
}

// traceChunk is the number of identity records a traced NI allocates at
// once.
const traceChunk = 32

// Push commits the staged packet to the network and clears the staging
// registers on success. Backpressure and rejection leave the staged packet
// intact so the caller can retry the push after re-checking status. Every
// Network's Inject copies the payload, so the staging buffer is reused for
// the next packet.
//
// A traced packet's identity record is the next one of the NI's chunk. A
// refused push does not use it up: the retry, or the next packet, is
// stamped into the same record.
func (n *NI) Push() error {
	if !n.sendStaged {
		return ErrNothingStaged
	}
	p := network.Packet{
		Src:  n.node,
		Dst:  n.sendDst,
		Tag:  n.sendTag,
		Head: n.sendHead,
		Data: n.sendData,
	}
	if n.sendTrace != (network.Trace{}) {
		if len(n.traces) == 0 {
			n.traces = make([]network.Trace, traceChunk)
		}
		n.traces[0] = n.sendTrace
		p.Trace = &n.traces[0]
	}
	if err := n.net.Inject(p); err != nil {
		return err
	}
	if p.Trace != nil {
		n.traces = n.traces[1:]
	}
	n.sendDst = -1
	n.sendTag = 0
	n.sendHead = 0
	n.sendData = n.sendData[:0]
	n.sendStaged = false
	n.sendTrace = network.Trace{}
	return nil
}

// RecvTrace returns the observability identity carried by the staged
// received packet (all zero when tracing was off at the sender). Like
// StageTrace it models no device access.
func (n *NI) RecvTrace() (msg, span, pkt uint64) {
	if !n.recvValid {
		return 0, 0, 0
	}
	return n.recv.Trace.IDs()
}

// SendOK reads the status register confirming the previous send: true when
// the staging buffer is empty (the packet left for the network).
func (n *NI) SendOK() bool {
	n.access.StatusReads++
	return !n.sendStaged
}

// RecvReady reads the status register for waiting packets, staging the next
// good one. Corrupt packets (failed CRC) are detected here, counted, and
// discarded — the CM-5 detects errors but cannot correct them, so software
// never sees the payload.
func (n *NI) RecvReady() bool {
	n.access.StatusReads++
	for !n.recvValid {
		p, ok := n.net.TryRecv(n.node)
		if !ok {
			return false
		}
		if p.Corrupt {
			n.access.CRCErrors++
			continue
		}
		n.recv = p
		n.recvValid = true
	}
	return true
}

// ReadMeta loads the source, tag, and metadata word of the staged packet
// (one device load). It panics if no packet is staged — a protocol bug, not
// a runtime condition.
func (n *NI) ReadMeta() (src int, tag network.Tag, head network.Word) {
	if !n.recvValid {
		panic("ni: ReadMeta with no staged packet")
	}
	n.access.Reads++
	return n.recv.Src, n.recv.Tag, n.recv.Head
}

// ReadData loads the staged packet's payload with double-word loads and
// consumes the packet, freeing the staging register.
func (n *NI) ReadData() []network.Word {
	if !n.recvValid {
		panic("ni: ReadData with no staged packet")
	}
	n.access.Reads += uint64(len(n.recv.Data)+1) / 2
	data := n.recv.Data
	n.recv = network.Packet{}
	n.recvValid = false
	return data
}

// Discard consumes the staged packet without reading its payload.
func (n *NI) Discard() {
	n.recv = network.Packet{}
	n.recvValid = false
}
