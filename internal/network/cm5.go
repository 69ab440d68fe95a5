package network

import (
	"fmt"

	"msglayer/internal/obs"
)

// CM5Config configures a CM5Net.
type CM5Config struct {
	// Nodes is the number of attached processing nodes (required).
	Nodes int
	// PacketWords is the payload capacity of a hardware packet; the CM-5
	// carries four data words. Defaults to 4.
	PacketWords int
	// Reorder chooses the per-flow delivery-order model. Defaults to
	// InOrder (no reordering).
	Reorder ReorderPolicy
	// Faults injects packet corruption and loss. Defaults to NoFaults.
	Faults FaultPlan
	// Capacity bounds the packets buffered toward any one destination,
	// modeling finite network and node buffering. Zero means unbounded.
	Capacity int
}

// flowState is one (source, destination) flow, kept in its destination's
// list: a destination hears from few sources, so a scan finds the flow
// sooner than a hash and the lists hold only flows that carried traffic.
type flowState struct {
	src       int
	reorderer Reorderer
	nextSeq   uint64
	held      int // packets inside the reorderer
}

// cm5Dest is what a CM5Net keeps per destination.
type cm5Dest struct {
	queue fifo        // deliverable packets
	flows []flowState // flows toward the destination, in first-use order
}

// CM5Net is the behavioral model of the CM-5 data network: arbitrary
// delivery order within a flow (per the configured policy), finite
// buffering, and fault detection without correction.
type CM5Net struct {
	cfg   CM5Config
	dsts  []cm5Dest
	out   []Packet // a reorderer's released packets, on their way to a queue
	slab  Slab
	stats Stats
	obs   *obs.NetScope
}

// NewCM5Net constructs the network.
func NewCM5Net(cfg CM5Config) (*CM5Net, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("network: CM5Net needs >= 1 node, got %d", cfg.Nodes)
	}
	if cfg.PacketWords == 0 {
		cfg.PacketWords = 4
	}
	if cfg.PacketWords < 1 {
		return nil, fmt.Errorf("network: packet payload must be positive, got %d", cfg.PacketWords)
	}
	if cfg.Reorder == nil {
		cfg.Reorder = InOrder()
	}
	if cfg.Faults == nil {
		cfg.Faults = NoFaults{}
	}
	return &CM5Net{
		cfg:  cfg,
		dsts: make([]cm5Dest, cfg.Nodes),
	}, nil
}

// MustCM5Net is NewCM5Net that panics on bad configuration.
func MustCM5Net(cfg CM5Config) *CM5Net {
	n, err := NewCM5Net(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Name implements Network.
func (n *CM5Net) Name() string { return "cm5" }

// SetObserver implements obs.NetInstrumentable.
func (n *CM5Net) SetObserver(s *obs.NetScope) { n.obs = s }

// QueueDepth implements obs.DepthProber: packets buffered toward a node,
// queued or held in reorderers.
func (n *CM5Net) QueueDepth(node int) int {
	if node < 0 || node >= n.cfg.Nodes {
		return 0
	}
	return n.inFlight(node)
}

// Nodes implements Network.
func (n *CM5Net) Nodes() int { return n.cfg.Nodes }

// PacketWords implements Network.
func (n *CM5Net) PacketWords() int { return n.cfg.PacketWords }

// inFlight counts packets buffered toward a destination, queued or held.
func (n *CM5Net) inFlight(dst int) int {
	d := &n.dsts[dst]
	count := d.queue.len()
	for i := range d.flows {
		count += d.flows[i].held
	}
	return count
}

// flow returns the flow from src to dst, starting it on first use.
func (n *CM5Net) flow(src, dst int) *flowState {
	d := &n.dsts[dst]
	for i := range d.flows {
		if d.flows[i].src == src {
			return &d.flows[i]
		}
	}
	d.flows = append(d.flows, flowState{src: src, reorderer: n.cfg.Reorder()})
	return &d.flows[len(d.flows)-1]
}

// Inject implements Network.
func (n *CM5Net) Inject(p Packet) error {
	if err := validate(p, n.cfg.Nodes, n.cfg.PacketWords); err != nil {
		return err
	}
	if n.cfg.Capacity > 0 && n.inFlight(p.Dst) >= n.cfg.Capacity {
		n.stats.Backpressure++
		n.obs.Backpressure(p.Dst)
		return ErrBackpressure
	}

	f := n.flow(p.Src, p.Dst)
	p.flow = f.nextSeq
	f.nextSeq++
	p.Data = n.slab.Clone(p.Data)
	n.stats.Injected++
	n.obs.Injected()

	switch n.cfg.Faults.Judge(p) {
	case Drop:
		n.stats.Dropped++
		n.obs.Dropped(p.Dst)
		return nil // the network ate it; nobody is told
	case Corrupt:
		p.Corrupt = true
	}

	n.out = f.reorderer.Push(n.out[:0], p)
	f.held += 1 - len(n.out) // p went in, the released packets out
	n.enqueue(p.Dst)
	return nil
}

// enqueue moves the packets a reorderer released onto a destination's
// queue.
func (n *CM5Net) enqueue(dst int) {
	q := &n.dsts[dst].queue
	for i := range n.out {
		q.push(n.out[i])
	}
	clear(n.out)
}

// TryRecv implements Network. When a destination's queue is empty, any
// packets still held inside reorderers for that destination are flushed —
// the adaptive paths eventually converge.
func (n *CM5Net) TryRecv(node int) (Packet, bool) {
	if node < 0 || node >= n.cfg.Nodes {
		return Packet{}, false
	}
	d := &n.dsts[node]
	q := &d.queue
	if q.len() == 0 {
		for i := range d.flows {
			if f := &d.flows[i]; f.held > 0 {
				n.out = f.reorderer.Flush(n.out[:0])
				f.held -= len(n.out)
				n.enqueue(node)
			}
		}
	}
	p, ok := q.pop()
	if !ok {
		return Packet{}, false
	}
	n.stats.Delivered++
	n.obs.Delivered()
	if p.Corrupt {
		n.stats.CorruptSeen++
		n.obs.Corrupt(node)
	}
	return p, true
}

// Pending implements Network.
func (n *CM5Net) Pending() int {
	total := 0
	for dst := range n.dsts {
		total += n.inFlight(dst)
	}
	return total
}

// Stats implements Network.
func (n *CM5Net) Stats() Stats { return n.stats }

var _ Network = (*CM5Net)(nil)
