package network

import (
	"fmt"

	"msglayer/internal/obs"
)

// CRConfig configures a CRNet.
type CRConfig struct {
	// Nodes is the number of attached processing nodes (required).
	Nodes int
	// PacketWords is the payload capacity of a hardware packet.
	// Defaults to 4 (the paper assumes CM-5-like hardware with five-word
	// packets: one header word plus four data words).
	PacketWords int
	// Capacity bounds the packets buffered toward any one destination.
	// Zero means unbounded. Unlike the CM-5 model, exceeding it cannot
	// deadlock: Compressionless Routing kills and later retries blocked
	// worms, which the behavioral model surfaces as ErrBackpressure for
	// the sender to retry.
	Capacity int
	// TransientFaults optionally injects link faults. Compressionless
	// Routing recovers from them in hardware — the injecting sender
	// retries until the tail flit is accepted — so faults here never
	// surface to software; they only increment the HWRetries counter.
	TransientFaults FaultPlan
}

// Acceptor is a destination's resource check, consulted when a transfer's
// header packet begins to arrive. Returning false rejects the packet: the
// message path is torn down without the packet ever occupying destination
// resources (Compressionless Routing's deadlock-freedom independent of
// acceptance guarantees).
type Acceptor func(Packet) bool

// crDest is what a CRNet keeps per destination.
type crDest struct {
	queue    fifo
	acceptor Acceptor
	flows    []flowCount // the next sequence number of each source
}

// CRNet is the behavioral model of a Compressionless-Routing substrate:
// order-preserving, reliable at the packet level, with header rejection in
// place of software buffer preallocation.
type CRNet struct {
	cfg   CRConfig
	dsts  []crDest
	slab  Slab
	stats Stats
	obs   *obs.NetScope
}

// NewCRNet constructs the network.
func NewCRNet(cfg CRConfig) (*CRNet, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("network: CRNet needs >= 1 node, got %d", cfg.Nodes)
	}
	if cfg.PacketWords == 0 {
		cfg.PacketWords = 4
	}
	if cfg.PacketWords < 1 {
		return nil, fmt.Errorf("network: packet payload must be positive, got %d", cfg.PacketWords)
	}
	return &CRNet{
		cfg:  cfg,
		dsts: make([]crDest, cfg.Nodes),
	}, nil
}

// MustCRNet is NewCRNet that panics on bad configuration.
func MustCRNet(cfg CRConfig) *CRNet {
	n, err := NewCRNet(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// SetAcceptor installs (or clears, with nil) a destination's header
// acceptance check.
func (n *CRNet) SetAcceptor(node int, a Acceptor) error {
	if node < 0 || node >= n.cfg.Nodes {
		return fmt.Errorf("network: no node %d", node)
	}
	n.dsts[node].acceptor = a
	return nil
}

// Name implements Network.
func (n *CRNet) Name() string { return "cr" }

// SetObserver implements obs.NetInstrumentable.
func (n *CRNet) SetObserver(s *obs.NetScope) { n.obs = s }

// QueueDepth implements obs.DepthProber: packets buffered toward a node.
func (n *CRNet) QueueDepth(node int) int {
	if node < 0 || node >= n.cfg.Nodes {
		return 0
	}
	return n.dsts[node].queue.len()
}

// Nodes implements Network.
func (n *CRNet) Nodes() int { return n.cfg.Nodes }

// PacketWords implements Network.
func (n *CRNet) PacketWords() int { return n.cfg.PacketWords }

// Inject implements Network. Injection succeeds only once the packet is
// guaranteed to arrive: the acceptance check models Compressionless
// Routing's property that a worm must begin draining at the destination
// before it has fully entered the network, and transient faults are retried
// by hardware before the tail-flit acknowledgement releases the sender.
func (n *CRNet) Inject(p Packet) error {
	if err := validate(p, n.cfg.Nodes, n.cfg.PacketWords); err != nil {
		return err
	}
	d := &n.dsts[p.Dst]
	if a := d.acceptor; a != nil && !a(p) {
		n.stats.Rejected++
		n.obs.Rejected(p.Dst)
		return ErrRejected
	}
	if n.cfg.Capacity > 0 && d.queue.len() >= n.cfg.Capacity {
		n.stats.Backpressure++
		n.obs.Backpressure(p.Dst)
		return ErrBackpressure
	}
	if n.cfg.TransientFaults != nil {
		// Hardware keeps retrying the worm until its tail is accepted;
		// each non-Deliver verdict is one transparent retry. The bound
		// guards against a pathological always-fault plan.
		before := n.stats.HWRetries
		for retries := 0; n.cfg.TransientFaults.Judge(p) != Deliver && retries < 1024; retries++ {
			n.stats.HWRetries++
		}
		n.obs.HWRetries(n.stats.HWRetries - before)
	}

	p.flow = n.nextSeq(p.Src, p.Dst)
	p.Data = n.slab.Clone(p.Data)
	n.stats.Injected++
	n.obs.Injected()
	d.queue.push(p)
	return nil
}

// flowCount is one source's injection count toward a destination.
type flowCount struct {
	src  int
	next uint64
}

// nextSeq returns the flow sequence number of src's next packet to dst
// and counts it. A destination hears from few sources, so its list is
// scanned.
func (n *CRNet) nextSeq(src, dst int) uint64 {
	d := &n.dsts[dst]
	for i := range d.flows {
		if d.flows[i].src == src {
			d.flows[i].next++
			return d.flows[i].next - 1
		}
	}
	d.flows = append(d.flows, flowCount{src: src, next: 1})
	return 0
}

// TryRecv implements Network.
func (n *CRNet) TryRecv(node int) (Packet, bool) {
	if node < 0 || node >= n.cfg.Nodes {
		return Packet{}, false
	}
	p, ok := n.dsts[node].queue.pop()
	if !ok {
		return Packet{}, false
	}
	n.stats.Delivered++
	n.obs.Delivered()
	return p, true
}

// Pending implements Network.
func (n *CRNet) Pending() int {
	total := 0
	for i := range n.dsts {
		total += n.dsts[i].queue.len()
	}
	return total
}

// Stats implements Network.
func (n *CRNet) Stats() Stats { return n.stats }

var _ Network = (*CRNet)(nil)
