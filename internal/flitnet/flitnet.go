// Package flitnet is a flit-level wormhole-routed network simulator. It
// demonstrates the router mechanisms behind the two behavioral substrates
// of package network:
//
//   - Deterministic routing (dimension-order on a mesh, fixed up-path on a
//     fat tree) delivers each flow over a single path, preserving order.
//   - Adaptive routing exploits the fat tree's redundant up links (or the
//     mesh's productive directions); worms of one flow can take different
//     paths and arrive out of order — the CM-5-style network feature whose
//     software cost the paper measures.
//   - Compressionless Routing mode adds the Section 4 services: a worm's
//     header may be rejected by a resource-checking destination (tearing
//     down the path without deadlock), a worm whose head cannot advance
//     for KillTimeout cycles is killed and retried from the source
//     (deadlock recovery without acceptance guarantees), short worms are
//     padded so the tail's acceptance doubles as an end-to-end
//     acknowledgement, and worms of one flow are issued one at a time so
//     transmission order is preserved even across kills and retries.
//
// A packet becomes a worm of single-word flits: one head (routing
// information), one flit per payload word, and one tail. Routers have one
// FIFO input buffer per port; a worm's head claims an output port, its body
// follows the claimed path, and the tail releases it — classic wormhole
// flow control. The simulation is cycle-stepped and fully deterministic.
package flitnet

import (
	"errors"
	"fmt"
	"math/bits"

	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/topology"
)

// Mode selects the routing discipline.
type Mode int

// Routing modes.
const (
	// Deterministic follows the first route candidate everywhere:
	// single-path, order-preserving, no recovery.
	Deterministic Mode = iota
	// Adaptive takes the first route candidate whose output is free,
	// permitting multipath and hence out-of-order delivery.
	Adaptive
	// CR is Compressionless Routing: deterministic paths plus header
	// rejection, kill-and-retry, padding, and per-flow serialization.
	CR
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Deterministic:
		return "deterministic"
	case Adaptive:
		return "adaptive"
	case CR:
		return "cr"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config assembles a flit network.
type Config struct {
	// Topology is required.
	Topology topology.Topology
	// Mode selects the routing discipline.
	Mode Mode
	// PacketWords is the payload capacity of one packet. Defaults to 4.
	PacketWords int
	// BufferFlits is the capacity of each router input buffer. Defaults
	// to 4.
	BufferFlits int
	// InjectQueue bounds worms waiting at each node. Defaults to 16;
	// injection beyond it backpressures.
	InjectQueue int
	// KillTimeout (CR only) is how many cycles a worm's head may sit
	// blocked before the worm is killed and retried. Defaults to 64.
	KillTimeout int
	// RetryBackoff (CR only) is how many cycles a killed worm waits
	// before re-entering its flow queue. Defaults to 16.
	RetryBackoff int
	// MaxRetries (CR only) bounds kill/reject retries per worm before
	// the injection is reported failed. Defaults to 64.
	MaxRetries int
	// DenseReference selects the retained dense scheduling core: every
	// router × port × virtual channel is scanned every cycle, the way the
	// engine worked before the event-driven worklists. Results are
	// byte-identical to the default engine — the differential property
	// test holds the two to that contract — but cost scales with topology
	// size instead of flits in flight. Use it only as a baseline for
	// benchmarks and for differential testing.
	DenseReference bool
	// VirtualChannels multiplexes each physical link over V virtual
	// channels (Dally's flow control, one of the features the paper
	// names as a source of out-of-order delivery). Each input port gets
	// V independent FIFOs; a worm claims one (port, vc) lane per hop,
	// and a physical link still carries at most one flit per cycle, so
	// worms sharing a link interleave instead of serializing. In
	// adaptive mode channel 0 is the escape lane, restricted to the
	// deterministic first route candidate (Duato's discipline). Defaults
	// to 1. CR mode always uses a single channel: its padding and
	// implicit-acknowledgement semantics assume the worm owns its path.
	VirtualChannels int
	// Shards exists only for perfbench, whose flit workloads still set it
	// to 1. The sharded engine was removed; New rejects any value other
	// than 0 or 1.
	Shards int
}

type flitKind uint8

const (
	flitHead flitKind = iota
	flitBody
	flitPad
	flitTail
)

type flit struct {
	worm    *worm
	kind    flitKind
	arrived uint64 // cycle the flit entered its current buffer
}

type wormState uint8

const (
	wormQueued wormState = iota
	wormInjecting
	wormInFlight // fully injected, tail still traveling
	wormDelivered
	wormKilled
	wormFailed
)

type worm struct {
	id       uint64
	packet   network.Packet
	flow     *flow // the (src, dst) flow the worm was injected on
	state    wormState
	flits    int // total flits including head, pads, tail
	sent     int // flits pushed into the network so far
	retries  int
	blocked  uint64 // consecutive cycles the head could not advance
	wakeAt   uint64 // cycle a killed worm re-enters its flow queue
	srcVC    int    // the virtual channel the worm injects on
	injected uint64 // cycle the packet entered the inject queue
	// Observability bookkeeping (costs three stores per worm when no
	// observer is attached): waitFrom marks when the current wait began
	// (inject-queue entry or kill backoff), startedAt when injection began,
	// and stallCycles counts cycles the head sat blocked in transit.
	waitFrom    uint64
	startedAt   uint64
	stallCycles uint64
	// claims lists the input lanes (by lane id) whose claim this worm
	// currently holds, in path order; claimHead indexes the first
	// still-held claim. The head appends as it claims, the tail releases
	// front-first, and a kill releases the remainder — so tearing down a
	// worm's path costs O(path length) instead of a scan over every lane.
	claims    []int32
	claimHead int
}

// pushClaim records that the worm holds the claim of input lane id.
func (w *worm) pushClaim(id int32) { w.claims = append(w.claims, id) }

// popClaim releases the worm's oldest claim (the tail has left that
// lane); the list rewinds once empty so it never grows past path length.
func (w *worm) popClaim() {
	w.claimHead++
	if w.claimHead == len(w.claims) {
		w.claims = w.claims[:0]
		w.claimHead = 0
	}
}

// lane addresses one virtual channel of one port.
type lane struct {
	port, vc int
}

// laneFIFO is the fixed-capacity flit ring backing one virtual channel of
// one input port. Capacity is BufferFlits, allocated once at construction;
// push and pop never allocate, unlike the slide-and-append slices they
// replaced (whose backing arrays crawled forward one flit at a time,
// reallocating every few cycles under load).
//
// claimW and claim are the lane's wormhole claim: claimW's head, passing
// through this lane, won output lane claim of the same router, and the
// worm's later flits follow it there. Only the front flit reads the claim,
// and the next worm's head reaches the front only after claimW's tail has
// left — releasing the claim as it goes — so one slot per lane suffices.
//
// routeDst and route cache the route candidates of the last destination a
// head was routed to from this lane. Topology.RouteAppend is a pure
// function of (router, inPort, dst) and a lane fixes the router and the
// inPort, so the cache is exact; a head blocked for many cycles, or the
// next worm of the same flow, reuses it instead of routing again. route's
// capacity is the router's port count (candidates are distinct ports), so
// refilling it never allocates.
type laneFIFO struct {
	buf      []flit
	head     int
	n        int
	claimW   *worm
	claim    lane
	routeDst int
	route    []int
}

func (q *laneFIFO) len() int   { return q.n }
func (q *laneFIFO) full() bool { return q.n == len(q.buf) }

// front returns the flit at the head of the ring; call only when len > 0.
func (q *laneFIFO) front() *flit { return &q.buf[q.head] }

func (q *laneFIFO) push(f flit) {
	q.buf[(q.head+q.n)%len(q.buf)] = f
	q.n++
}

func (q *laneFIFO) pop() {
	q.buf[q.head] = flit{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
}

// filterWorm removes every flit of w from the ring, preserving the order
// of the rest — the kill sweep. It returns how many flits it removed, so
// the caller can keep the buffered-flit gauges exact.
func (q *laneFIFO) filterWorm(w *worm) int {
	kept := 0
	for i := 0; i < q.n; i++ {
		fl := q.buf[(q.head+i)%len(q.buf)]
		if fl.worm == w {
			continue
		}
		q.buf[(q.head+kept)%len(q.buf)] = fl
		kept++
	}
	removed := q.n - kept
	for i := kept; i < q.n; i++ {
		q.buf[(q.head+i)%len(q.buf)] = flit{}
	}
	q.n = kept
	return removed
}

type router struct {
	owner [][]*worm // [port][vc] output lane -> owning worm
	// link[port] is the far end of each port, tabulated from
	// Topology.Neighbor once at construction.
	link []hop
	// outUsed[port] stamped with the current cycle means the physical
	// link already carried a flit this cycle — the per-cycle map the
	// route phase used to allocate, as a reusable scratch slice.
	outUsed []uint64
}

// hop is one entry of the neighbor table, in Topology.Neighbor's form:
// (peer, peerPort, Terminal) for a router link, (Terminal, 0, node) for a
// node attachment. lane is the id of virtual channel 0 of the peer's input
// port (peer, peerPort), so channel vc there is lane+vc; -1 where no
// router is attached.
type hop struct {
	peer, peerPort, node, lane int32
}

// release drops the claim input lane buf holds, freeing the output lane
// it names.
func (rt *router) release(buf *laneFIFO) {
	if out := buf.claim; rt.owner[out.port][out.vc] == buf.claimW {
		rt.owner[out.port][out.vc] = nil
	}
	buf.claimW = nil
}

type flowKey struct {
	src, dst int
}

type flow struct {
	key    flowKey
	queue  []*worm // worms awaiting injection, in order; head indexes the front
	head   int
	active *worm // the worm currently entering the network (CR: at most one in flight)
	idx    int32 // position in Net.flowSeq — the ready worklist's id
	// padTo (CR only) is the flow's minimum worm length: head, one flit
	// per router on the deterministic path, and tail.
	padTo int
}

func (f *flow) pending() int { return len(f.queue) - f.head }

func (f *flow) front() *worm { return f.queue[f.head] }

func (f *flow) popFront() *worm {
	w := f.queue[f.head]
	f.queue[f.head] = nil
	f.head++
	if f.head == len(f.queue) {
		f.queue = f.queue[:0]
		f.head = 0
	}
	return w
}

func (f *flow) pushBack(w *worm) { f.queue = append(f.queue, w) }

// flowTable finds a flow by its (src, dst) pair without a Go map: open
// addressing with linear probing, kept at most half full. Its size follows
// the flows seen, not nodes², so a large topology carrying little traffic
// pays for little table. Slots hold one more than the flow's index in
// Net.flowSeq (0 is empty); int32 slots hold no pointers, so the collector
// never scans the table.
type flowTable struct {
	slot  []int32 // length a power of two, or 0 before the first flow
	shift uint    // 64 - log2(len(slot))
}

// home is the first slot probed for (src, dst): Fibonacci hashing of the
// packed pair (injective for node numbers below 2^32).
func (t *flowTable) home(src, dst int) int {
	return int((uint64(src)<<32 | uint64(dst)) * 0x9e3779b97f4a7c15 >> t.shift)
}

// find returns the flow for (src, dst) among seq, or nil if it has none.
func (t *flowTable) find(seq []*flow, src, dst int) *flow {
	if len(t.slot) == 0 {
		return nil
	}
	mask := len(t.slot) - 1
	for i := t.home(src, dst); ; i = (i + 1) & mask {
		at := t.slot[i]
		if at == 0 {
			return nil
		}
		if f := seq[at-1]; f.key.src == src && f.key.dst == dst {
			return f
		}
	}
}

// insert records seq's last flow, which find does not yet know, doubling
// the table (and re-placing every flow) when it would pass half full.
func (t *flowTable) insert(seq []*flow) {
	if 2*len(seq) > len(t.slot) {
		size := 16
		for size < 2*len(seq) {
			size *= 2
		}
		t.slot = make([]int32, size)
		t.shift = uint(64 - bits.TrailingZeros(uint(size)))
		for _, f := range seq {
			t.place(f)
		}
		return
	}
	t.place(seq[len(seq)-1])
}

// place stores f in the first empty slot of its probe sequence.
func (t *flowTable) place(f *flow) {
	mask := len(t.slot) - 1
	i := t.home(f.key.src, f.key.dst)
	for t.slot[i] != 0 {
		i = (i + 1) & mask
	}
	t.slot[i] = f.idx + 1
}

// pushFront re-queues a killed worm at the front, reusing the popped slot
// when one exists so retries do not reallocate the queue.
func (f *flow) pushFront(w *worm) {
	if f.head > 0 {
		f.head--
		f.queue[f.head] = w
		return
	}
	f.queue = append(f.queue, nil)
	copy(f.queue[1:], f.queue)
	f.queue[0] = w
}

// Stats extends the behavioral substrate counters with flit-level detail.
type Stats struct {
	network.Stats
	Kills        uint64 // worms killed (timeout or rejection)
	Retries      uint64 // kill/reject retries performed
	Cycles       uint64 // simulated cycles
	FlitMoves    uint64 // individual flit hops
	PadFlits     uint64 // padding flits injected (CR)
	FailedWorms  uint64 // worms that exhausted their retries
	LatencySum   uint64 // total queue-to-tail-delivery latency, cycles
	LatencyMax   uint64 // worst packet latency observed, cycles
	LatencyCount uint64 // packets contributing to LatencySum
}

// MeanLatency returns the average injection-to-delivery latency in cycles.
func (s Stats) MeanLatency() float64 {
	if s.LatencyCount == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.LatencyCount)
}

// pktChunkLen is how many packets one delivery-queue chunk holds.
const pktChunkLen = 64

// pktChunk is one fixed-size block of a delivery queue.
type pktChunk struct {
	pkts [pktChunkLen]network.Packet
	next *pktChunk
}

// pktQueue is a per-node delivery queue grown in fixed-size chunks. A
// backlog that builds up before anyone reads it (a run that drains its
// receive queues only at the end) never gets copied, as it would be in a
// slice that doubles; chunks that pop empties go to a free list, so
// steady-state delivery allocates nothing.
type pktQueue struct {
	head, tail *pktChunk
	hi, ti     int // next pop index in head, next push index in tail
	n          int
	free       *pktChunk
}

func (q *pktQueue) len() int { return q.n }

func (q *pktQueue) push(p network.Packet) {
	if q.tail == nil || q.ti == pktChunkLen {
		c := q.free
		if c != nil {
			q.free = c.next
			c.next = nil
		} else {
			c = new(pktChunk)
		}
		if q.tail == nil {
			q.head, q.hi = c, 0
		} else {
			q.tail.next = c
		}
		q.tail, q.ti = c, 0
	}
	q.tail.pkts[q.ti] = p
	q.ti++
	q.n++
}

func (q *pktQueue) pop() (network.Packet, bool) {
	if q.n == 0 {
		return network.Packet{}, false
	}
	c := q.head
	p := c.pkts[q.hi]
	c.pkts[q.hi] = network.Packet{}
	q.hi++
	q.n--
	switch {
	case q.n == 0:
		// Drained: rewind within the last chunk to reuse it.
		q.hi, q.ti = 0, 0
	case q.hi == pktChunkLen:
		q.head, q.hi = c.next, 0
		c.next, q.free = q.free, c
	}
	return p, true
}

// Net is the flit-level network. It implements network.Network (injection
// may backpressure; packets appear at TryRecv once their tail is accepted)
// plus Tick to advance simulated time.
type Net struct {
	cfg     Config
	routers []router
	// flows finds a (src, dst) pair's flow in flowSeq.
	flows flowTable
	// nodeIn[node] is the lane id of virtual channel 0 of the input port
	// a node's traffic enters at, tabulated from Topology.NodePort once at
	// construction.
	nodeIn    []int32
	recvq     []pktQueue
	accepts   []network.Acceptor
	nextID    uint64
	cycle     uint64
	stats     Stats
	queued    []int   // worms queued or active per node, for backpressure
	injecting []*worm // the worm currently occupying each node's send path
	inflight  int     // worms injecting or traveling
	// injMark[node] stamped with the current cycle means the node already
	// injected a flit this cycle (the inject phase's former per-tick map).
	injMark []uint64
	// wormPool and wordPool recycle worm structs and payload buffers:
	// worms return on delivery or failure, payload buffers only on
	// failure (a delivered payload escapes to the receiver via TryRecv).
	wormPool []*worm
	wordPool [][]network.Word

	// --- event-driven engine state ------------------------------------
	//
	// The route phase iterates lanes, the inject phase iterates flows, and
	// both worklists visit their ids in ascending order, so the sparse
	// iteration replays the dense scan's visiting order exactly; see
	// engine.go for the contract.

	// dense selects the retained dense reference stepper (Config.
	// DenseReference). The worklists stay maintained either way, so a
	// dense net can be compared against an event-driven twin at any point.
	dense bool
	// lanes is the active-lane worklist: every lane currently holding at
	// least one flit is set here. Ids are ascending (router, port, vc),
	// the dense scan order; laneRouter/lanePort/laneBase decode them.
	lanes worklist
	// lane holds every input lane by id.
	lane       []laneFIFO
	laneRouter []int32
	lanePort   []int32
	laneBase   []int32
	// ready is the injectable-flow worklist, by flowSeq index.
	// Flows leave it when they drain, sleep in retry backoff (parking in
	// wake), or wait on a CR tail acceptance, and return on Inject, kill,
	// delivery, or backoff expiry.
	ready worklist
	// wake holds sleeping flows keyed by their front worm's wakeAt; its
	// minimum is the idle fast-forward target.
	wake wakeHeap
	// flowSeq lists the flows in first-Inject order, the dense scan's
	// flow order.
	flowSeq []*flow
	// queuedWorms counts worms sitting in flow queues and recvqTotal the
	// delivered-but-unread packets, so quiet() and Pending() are O(1)
	// instead of rescanning every flow per cycle.
	queuedWorms int
	recvqTotal  int
	// idleSkipped counts cycles covered by fast-forward rather than
	// stepped individually; they are still folded into stats.Cycles.
	idleSkipped uint64

	// obs, when non-nil, records flit-level transit events (queue waits,
	// transfer spans, backpressure, kills, deliveries). Every emission site
	// lives in the engine functions shared by the dense and event-driven
	// steppers, so traces are byte-identical across both.
	obs *obs.FlitScope

	// gauges, when non-nil, receives the network's occupancy state once
	// per advanced cycle (see noteCycle); buffered/bufferedVC maintain the
	// input-buffer population it publishes. linkObs[r][port], when non-nil,
	// counts flits moved across each router output link. Both attach with
	// the observer scope; the maintenance sites are shared between the
	// engines, so the published series are byte-identical across both.
	gauges     *obs.FlitGauges
	buffered   int
	bufferedVC []int
	linkObs    [][]*obs.Counter
	// onCycle, when non-nil, is invoked after the mutations of every
	// advanced cycle — once per stepped cycle, once per idle fast-forward
	// jump (covering the frozen cycles in between). The timeline sampler
	// hangs off it.
	onCycle func(cycle uint64)
}

// New builds the network.
func New(cfg Config) (*Net, error) {
	if cfg.Topology == nil {
		return nil, errors.New("flitnet: nil topology")
	}
	if cfg.PacketWords == 0 {
		cfg.PacketWords = 4
	}
	if cfg.PacketWords < 1 {
		return nil, fmt.Errorf("flitnet: packet payload %d", cfg.PacketWords)
	}
	if cfg.BufferFlits == 0 {
		cfg.BufferFlits = 4
	}
	if cfg.BufferFlits < 2 {
		return nil, fmt.Errorf("flitnet: buffers need >= 2 flits, got %d", cfg.BufferFlits)
	}
	if cfg.InjectQueue == 0 {
		cfg.InjectQueue = 16
	}
	if cfg.KillTimeout == 0 {
		cfg.KillTimeout = 64
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 16
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 64
	}
	if cfg.VirtualChannels == 0 {
		cfg.VirtualChannels = 1
	}
	if cfg.VirtualChannels < 1 || cfg.VirtualChannels > 8 {
		return nil, fmt.Errorf("flitnet: virtual channels must be 1-8, got %d", cfg.VirtualChannels)
	}
	if cfg.Shards != 0 && cfg.Shards != 1 {
		return nil, fmt.Errorf("flitnet: the sharded engine was removed; Shards must be 0 or 1, got %d", cfg.Shards)
	}
	if cfg.Mode == CR {
		cfg.VirtualChannels = 1 // CR worms own their path end to end
	}
	nodes := cfg.Topology.Nodes()
	n := &Net{
		cfg:       cfg,
		routers:   make([]router, cfg.Topology.NumRouters()),
		nodeIn:    make([]int32, nodes),
		recvq:     make([]pktQueue, nodes),
		accepts:   make([]network.Acceptor, nodes),
		queued:    make([]int, nodes),
		injecting: make([]*worm, nodes),
		injMark:   make([]uint64, nodes),
	}
	vcs := cfg.VirtualChannels
	// Lane ids: id = laneBase[r] + port*vcs + vc, so ascending ids replay
	// the dense scan's (router, port, vc) order and id/vcs uniquely
	// identifies a physical input port (laneBase is a multiple of vcs).
	n.laneBase = make([]int32, len(n.routers))
	total, routeCap := 0, 0
	for r := range n.routers {
		ports := cfg.Topology.Ports(r)
		n.laneBase[r] = int32(total)
		total += ports * vcs
		routeCap += ports * ports * vcs
	}
	for node := range n.nodeIn {
		r, p := cfg.Topology.NodePort(node)
		n.nodeIn[node] = n.laneID(r, p, 0)
	}
	links := make([]hop, 0, total/vcs)
	// Every lane's route cache is carved from one array, at capacity
	// Ports(r): a route lists distinct ports, so no refill outgrows it.
	routes := make([]int, routeCap)
	// All lanes, and all their flit rings, live in one array each, in
	// lane id order.
	n.lane = make([]laneFIFO, total)
	n.laneRouter = make([]int32, total)
	n.lanePort = make([]int32, total)
	flits := make([]flit, total*cfg.BufferFlits)
	id := 0
	for r := range n.routers {
		ports := cfg.Topology.Ports(r)
		first := len(links)
		for p := 0; p < ports; p++ {
			peer, peerPort, node := cfg.Topology.Neighbor(r, p)
			h := hop{peer: int32(peer), peerPort: int32(peerPort), node: int32(node), lane: -1}
			if peer != topology.Terminal {
				h.lane = n.laneID(peer, peerPort, 0)
			}
			links = append(links, h)
		}
		owner := make([][]*worm, ports)
		for p := range owner {
			for v := 0; v < vcs; v++ {
				q := &n.lane[id]
				q.buf, flits = flits[:cfg.BufferFlits:cfg.BufferFlits], flits[cfg.BufferFlits:]
				q.routeDst = -1
				q.route, routes = routes[:0:ports], routes[ports:]
				n.laneRouter[id] = int32(r)
				n.lanePort[id] = int32(p)
				id++
			}
			owner[p] = make([]*worm, vcs)
		}
		n.routers[r] = router{
			owner:   owner,
			link:    links[first:len(links):len(links)],
			outUsed: make([]uint64, ports),
		}
	}
	n.dense = cfg.DenseReference
	n.lanes.grow(total)
	return n, nil
}

// laneID encodes one virtual channel of one input port as its worklist id.
func (n *Net) laneID(r, port, vc int) int32 {
	return n.laneBase[r] + int32(port*n.cfg.VirtualChannels+vc)
}

// pushFlit places a flit into lane id, virtual channel vc of its port, and
// activates the lane in the worklist. Every flit enters a buffer through
// here, which is what keeps the active-lane set a superset of the occupied
// lanes at all times — and the buffered-flit gauges exact.
func (n *Net) pushFlit(id int32, vc int, fl flit) {
	n.lane[id].push(fl)
	n.lanes.add(id)
	if n.gauges != nil {
		n.buffered++
		n.bufferedVC[vc]++
	}
}

// popFlit removes a lane's front flit, keeping the buffered-flit gauges in
// step. Every consuming pop goes through here; the kill sweep accounts for
// its bulk removals separately.
func (n *Net) popFlit(buf *laneFIFO, vc int) {
	buf.pop()
	if n.gauges != nil {
		n.buffered--
		n.bufferedVC[vc]--
	}
}

// MustNew is New that panics on bad configuration.
func MustNew(cfg Config) *Net {
	n, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Name implements network.Network.
func (n *Net) Name() string {
	return fmt.Sprintf("flitnet(%s,%s)", n.cfg.Topology.Name(), n.cfg.Mode)
}

// Close exists only for perfbench, which still calls it. A net holds no
// goroutines or other resources, so Close does nothing.
func (n *Net) Close() {}

// Nodes implements network.Network.
func (n *Net) Nodes() int { return len(n.nodeIn) }

// PacketWords implements network.Network.
func (n *Net) PacketWords() int { return n.cfg.PacketWords }

// SetAcceptor installs a destination's header-acceptance check (CR mode).
func (n *Net) SetAcceptor(node int, a network.Acceptor) error {
	if node < 0 || node >= n.Nodes() {
		return fmt.Errorf("flitnet: no node %d", node)
	}
	n.accepts[node] = a
	return nil
}

// Inject implements network.Network: the packet becomes a worm queued at
// its source node.
func (n *Net) Inject(p network.Packet) error {
	if p.Src < 0 || p.Src >= n.Nodes() || p.Dst < 0 || p.Dst >= n.Nodes() {
		return fmt.Errorf("%w: src=%d dst=%d", network.ErrBadPacket, p.Src, p.Dst)
	}
	if len(p.Data) > n.cfg.PacketWords {
		return fmt.Errorf("%w: %d words", network.ErrBadPacket, len(p.Data))
	}
	if n.queued[p.Src] >= n.cfg.InjectQueue {
		n.stats.Backpressure++
		msg, span, pkt := p.Trace.IDs()
		n.obs.Event("flit.backpressure", n.cycle, msg, pkt, span)
		return network.ErrBackpressure
	}
	data := n.getWords(len(p.Data))
	copy(data, p.Data)
	p.Data = data

	f := n.flows.find(n.flowSeq, p.Src, p.Dst)
	if f == nil {
		f = n.newFlow(flowKey{p.Src, p.Dst})
	}
	w := n.getWorm()
	*w = worm{id: n.nextID, packet: p, flow: f, state: wormQueued, injected: n.cycle, waitFrom: n.cycle, claims: w.claims[:0]}
	n.nextID++
	// Head + payload + tail, padded in CR mode to the flow's path length.
	w.flits = 2 + len(p.Data)
	if w.flits < f.padTo {
		n.stats.PadFlits += uint64(f.padTo - w.flits)
		w.flits = f.padTo
	}
	f.pushBack(w)
	n.queuedWorms++
	n.ready.add(f.idx)
	n.queued[p.Src]++
	n.stats.Injected++
	if n.obs != nil {
		msg, pkt, parent := w.identity()
		n.obs.Event("flit.queued", n.cycle, msg, pkt, parent)
	}
	return nil
}

// syntheticMsgBase offsets the per-worm message identities synthesized for
// packets the messaging layer did not trace, keeping them disjoint from
// hub-allocated ids (which are small and sequential).
const syntheticMsgBase = uint64(1) << 32

// identity resolves the observability identity a worm's events carry: the
// packet's stamped identity when a messaging layer traced it, otherwise a
// synthetic per-worm identity so raw flit workloads (netload's generators
// inject packets directly, with no protocol above) still reconstruct into
// per-message span trees.
func (w *worm) identity() (msg, pkt, parent uint64) {
	if msg, span, pkt := w.packet.Trace.IDs(); msg != 0 || span != 0 {
		return msg, pkt, span
	}
	return syntheticMsgBase + w.id, w.id + 1, 0
}

// SetFlitObserver attaches (or, with nil, detaches) a flit-level recording
// scope. Attach before ticking; the emission points are shared between the
// dense and event-driven engines, so recorded traces are byte-identical
// across both. Attaching also resolves the occupancy gauges (in-flight
// worms, injection backlog, receive-queue depth, per-VC buffered flits)
// published once per advanced cycle, and the per-link flit counters the
// timeline turns into utilization series.
func (n *Net) SetFlitObserver(s *obs.FlitScope) {
	n.obs = s
	if s == nil {
		n.gauges = nil
		n.linkObs = nil
		return
	}
	vcs := n.cfg.VirtualChannels
	n.gauges = s.Gauges(vcs)
	if n.bufferedVC == nil {
		n.bufferedVC = make([]int, vcs)
	}
	n.linkObs = make([][]*obs.Counter, len(n.routers))
	for r := range n.routers {
		ports := make([]*obs.Counter, len(n.routers[r].outUsed))
		for p := range ports {
			ports[p] = s.LinkCounter(r, p)
		}
		n.linkObs[r] = ports
	}
}

// SetCycleListener installs (or clears, with nil) a callback invoked after
// the mutations of every advanced cycle: once per stepped cycle, and once
// per idle fast-forward jump, with the cycle the clock landed on. Skipped
// cycles mutate nothing, so a listener sampling state on boundaries inside
// the jump would read exactly the values it reads at the jump's end — the
// property that makes timeline windows byte-identical across engines.
func (n *Net) SetCycleListener(fn func(cycle uint64)) { n.onCycle = fn }

// noteCycle publishes the occupancy gauges and fires the cycle listener.
// Called (via its inlined guard in Tick/TickUntilQuiet) after every
// stepped cycle and after every fast-forward jump.
func (n *Net) noteCycle() {
	if g := n.gauges; g != nil {
		g.InflightWorms.Set(int64(n.inflight))
		g.InjectBacklog.Set(int64(n.queuedWorms))
		g.RecvqPackets.Set(int64(n.recvqTotal))
		g.BufferedFlits.Set(int64(n.buffered))
		for vc, l := range g.VCFlits {
			l.Set(int64(n.bufferedVC[vc]))
		}
	}
	if n.onCycle != nil {
		n.onCycle(n.cycle)
	}
}

// observing reports whether noteCycle has any work to do.
func (n *Net) observing() bool { return n.gauges != nil || n.onCycle != nil }

// newFlow registers the flow for key. In CR mode it fixes the flow's
// padded worm length once: short worms are padded to span the
// deterministic path from source to destination, so the tail's acceptance
// is an end-to-end acknowledgement.
func (n *Net) newFlow(key flowKey) *flow {
	f := &flow{key: key, idx: int32(len(n.flowSeq))}
	if n.cfg.Mode == CR {
		if path := topology.DeterministicPath(n.cfg.Topology, key.src, key.dst); path != nil {
			f.padTo = len(path) + 2
		}
	}
	n.flowSeq = append(n.flowSeq, f)
	n.flows.insert(n.flowSeq)
	n.ready.grow(len(n.flowSeq))
	return f
}

// TryRecv implements network.Network.
func (n *Net) TryRecv(node int) (network.Packet, bool) {
	if node < 0 || node >= n.Nodes() {
		return network.Packet{}, false
	}
	p, ok := n.recvq[node].pop()
	if !ok {
		return network.Packet{}, false
	}
	n.recvqTotal--
	n.stats.Delivered++
	return p, true
}

// Pending implements network.Network: worms not yet fully delivered plus
// undelivered packets. The maintained counters make it O(1), so polling it
// in a drain loop costs nothing even on large topologies.
func (n *Net) Pending() int {
	return n.inflight + n.queuedWorms + n.recvqTotal
}

// getWorm takes a worm from the pool, or allocates when it is empty. The
// caller overwrites every field.
func (n *Net) getWorm() *worm {
	if m := len(n.wormPool); m > 0 {
		w := n.wormPool[m-1]
		n.wormPool[m-1] = nil
		n.wormPool = n.wormPool[:m-1]
		return w
	}
	return new(worm)
}

// putWorm returns a finished worm to the pool, dropping its payload
// reference so a delivered buffer is not pinned by the pool.
func (n *Net) putWorm(w *worm) {
	w.packet = network.Packet{}
	n.wormPool = append(n.wormPool, w)
}

// getWords takes a payload buffer of the given length from the pool. All
// pooled buffers were allocated at PacketWords capacity, so any valid
// payload length fits.
func (n *Net) getWords(need int) []network.Word {
	if m := len(n.wordPool); m > 0 {
		buf := n.wordPool[m-1]
		n.wordPool[m-1] = nil
		n.wordPool = n.wordPool[:m-1]
		return buf[:need]
	}
	return make([]network.Word, need, n.cfg.PacketWords)
}

// putWords reclaims a payload buffer. Only undelivered payloads come back:
// a delivered packet's buffer belongs to the receiver.
func (n *Net) putWords(buf []network.Word) {
	if cap(buf) < n.cfg.PacketWords {
		return // not one of ours
	}
	n.wordPool = append(n.wordPool, buf[:0])
}

// Stats implements network.Network.
func (n *Net) Stats() network.Stats { return n.stats.Stats }

// FlitStats returns the extended counters.
func (n *Net) FlitStats() Stats { return n.stats }

// Cycle returns the current simulated cycle.
func (n *Net) Cycle() uint64 { return n.cycle }

// IdleSkipped returns how many cycles the engine fast-forwarded over
// instead of stepping individually. Skipped cycles are still counted in
// Stats.Cycles — the simulated clock is unchanged; only the host work to
// advance it is elided — so this is a measure of saved work, not of time.
func (n *Net) IdleSkipped() uint64 { return n.idleSkipped }

var _ network.Network = (*Net)(nil)
