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

type flowKey struct{ src, dst int }

type flowState struct {
	reorderer Reorderer
	nextSeq   uint64
	held      int // packets inside the reorderer
}

// CM5Net is the behavioral model of the CM-5 data network: arbitrary
// delivery order within a flow (per the configured policy), finite
// buffering, and fault detection without correction.
type CM5Net struct {
	cfg    CM5Config
	queues []fifo // deliverable packets per destination
	flows  map[flowKey]*flowState
	byDst  [][]*flowState // flows targeting each destination, for flushing
	slab   payloadSlab
	stats  Stats
	obs    *obs.NetScope
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
		cfg:    cfg,
		queues: make([]fifo, cfg.Nodes),
		flows:  make(map[flowKey]*flowState),
		byDst:  make([][]*flowState, cfg.Nodes),
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
	count := n.queues[dst].len()
	for _, f := range n.byDst[dst] {
		count += f.held
	}
	return count
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

	key := flowKey{p.Src, p.Dst}
	f := n.flows[key]
	if f == nil {
		f = &flowState{reorderer: n.cfg.Reorder()}
		n.flows[key] = f
		n.byDst[p.Dst] = append(n.byDst[p.Dst], f)
	}
	p.flow = f.nextSeq
	f.nextSeq++
	p.Data = n.slab.clone(p.Data)
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

	q := &n.queues[p.Dst]
	queued := len(q.buf)
	q.buf = f.reorderer.Push(q.buf, p)
	f.held += 1 - (len(q.buf) - queued) // p went in, the released packets out
	return nil
}

// TryRecv implements Network. When a destination's queue is empty, any
// packets still held inside reorderers for that destination are flushed —
// the adaptive paths eventually converge.
func (n *CM5Net) TryRecv(node int) (Packet, bool) {
	if node < 0 || node >= n.cfg.Nodes {
		return Packet{}, false
	}
	q := &n.queues[node]
	if q.len() == 0 {
		for _, f := range n.byDst[node] {
			if f.held > 0 {
				queued := len(q.buf)
				q.buf = f.reorderer.Flush(q.buf)
				f.held -= len(q.buf) - queued
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
	for dst := range n.queues {
		total += n.inFlight(dst)
	}
	return total
}

// Stats implements Network.
func (n *CM5Net) Stats() Stats { return n.stats }

var _ Network = (*CM5Net)(nil)
