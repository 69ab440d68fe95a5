package flitnet

import (
	"math"
	"sync"

	"msglayer/internal/network"
	"msglayer/internal/topology"
)

// The sharded engine partitions the routers (and with them every input
// lane, every attached node, and every flow keyed by its source node) into
// contiguous shards and runs each shard's inject and route work on its own
// worker goroutine inside a per-cycle barrier. The contract is the same one
// the event-driven engine holds against the dense reference: byte-identical
// results at any shard count — Stats, delivery order, traces, timelines.
//
// Why contiguous router ranges: lane ids ascend with (router, port, vc), so
// a contiguous router range owns a contiguous lane-id range, and the serial
// route phase's visiting order is exactly shard 0's lanes, then shard 1's,
// and so on. Every cross-shard interaction the serial engine performs
// reduces to one question — "is that input lane over there full right
// now?" — because an input lane has exactly one feeder (the single
// upstream link, or its node's injector) and pops at most one flit per
// cycle (its own visit). The sharded route phase answers it from three
// pieces of shared state, none of them racing:
//
//   - occ[lane]: the lane's occupancy at the start of the cycle, frozen
//     while the route phase runs and refreshed by the owner during the
//     apply phase.
//   - pushedStamp[lane]: cycle-stamped by the feeder shard when it moves a
//     flit into the lane this cycle. Only the feeder's own routers consult
//     it, so it is single-writer single-reader by construction.
//   - popStamp[lane]: cycle-stamped by the owner shard when the lane's
//     visit pops its front flit. Other shards read it only for lanes the
//     owner has already visited, which the owner advertises through a rank
//     watermark published at round barriers (pubRank).
//
// When the answer depends on a pop the owner has not published yet, the
// asking shard parks: it stops at its current position and resumes in the
// next round, after a barrier republishes every shard's watermark. Nothing
// is mutated before a park decision, so re-running the stopped lane is
// safe. The shard holding the globally smallest stuck position always
// advances at least one lane per round — its dependencies rank strictly
// below every other shard's watermark — so the rounds terminate.
//
// Cross-shard flit handoffs never touch the destination FIFO mid-phase:
// they queue in per-(source shard, destination shard) mailboxes and the
// receiving shard applies them at the barrier, in fixed source-shard order
// (each lane receives at most one flit per cycle, so the order across
// lanes is immaterial, but it is fixed anyway). Stats and gauges accumulate
// in per-shard slabs merged after the barrier; observability emissions are
// buffered per shard and replayed serially in the serial engine's order,
// so span ids, trace bytes, and metric counters come out identical.
//
// Modes outside the contract fall back to the serial engine (shards
// clamped to 1): CR (kills sweep every lane and release cross-shard
// claims; an exact parallel replay would serialize anyway), the dense
// reference, and any net with an acceptance check installed (acceptors
// can reject — and hence kill — in any mode). In a sharded run a kill is
// therefore a topology bug, and the engine panics rather than diverge.
type shardEngine struct {
	n      *Net
	shards []*shardState
	// shardOfRouter/shardOfLane map a router or lane id to its owner.
	shardOfRouter []int32
	shardOfLane   []int32
	// occ is the start-of-cycle occupancy snapshot per lane; pushedStamp
	// and popStamp are the cycle-stamped "fed this cycle" / "popped this
	// cycle" bits described above.
	occ         []int32
	pushedStamp []uint64
	popStamp    []uint64
	// pubRank[s] is shard s's published route progress: every lane ranking
	// strictly below it has been visited this cycle. Reset to -1 each
	// cycle, updated by the owner before each round barrier.
	pubRank []int64
	// mail[src][dst] holds the flits shard src moved into shard dst's
	// lanes this cycle, applied by dst at the barrier.
	mail [][][]mailRec
	// flowShard[idx] is the shard owning flow idx: the shard of its source
	// node's router. Appended by Inject as flows are created.
	flowShard []int32

	// roundCount counts route-round barriers across the run — each round
	// past the first per cycle is a park/retry loop the cross-shard traffic
	// forced.
	roundCount uint64

	started bool
	work    []chan int
	wg      sync.WaitGroup
}

// mailRec is one cross-shard flit handoff: the destination lane and the
// flit to push (arrived already stamped with the current cycle).
type mailRec struct {
	id int32
	fl flit
}

// obsRec is one buffered observability emission, replayed serially after
// the barrier. key orders inject-phase records across shards (the flow's
// order index); route-phase buffers concatenate in shard order, which is
// already the serial lane order.
type obsRec struct {
	span             bool
	name             string
	from, to         uint64 // events use from only
	msg, pkt, parent uint64
	key              int32
}

// phase codes dispatched to the workers.
const (
	phaseInject = iota
	phaseRoute
	phaseApply
	phaseExit
)

// shardState is one worker's private slice of the network.
type shardState struct {
	n   *Net
	idx int
	// Owned contiguous ranges: routers [firstRouter, lastRouter) and lanes
	// [firstLane, lastLane).
	firstRouter, lastRouter int
	firstLane, lastLane     int32

	// Per-shard twins of the event-driven worklists, covering only owned
	// lanes and flows (a flow belongs to the shard owning its source
	// node's router).
	lanes worklist
	ready worklist
	wake  wakeHeap

	// prog is this cycle's route visiting order (the worklist expanded
	// through the per-cycle virtual-channel rotation); pos is the resume
	// position after a park; prepared marks prog as built for this cycle.
	// myPubRank is the watermark computed at the end of each round; the
	// coordinator copies it into the shared pubRank slice between rounds so
	// other shards only ever see barrier-published values.
	prog      []int32
	pos       int
	prepared  bool
	myPubRank int64

	// Per-cycle accumulators, merged (and reset) by the coordinator after
	// the apply barrier.
	flitMoves        uint64
	latencySum       uint64
	latencyCount     uint64
	latencyMax       uint64
	inflightDelta    int
	queuedWormsDelta int
	recvqDelta       int
	bufferedDelta    int
	bufferedVCDelta  []int
	srcDecs          []int32
	wormPool         []*worm
	injectObs        []obsRec
	routeObs         []obsRec
	// touched lists lanes whose occupancy changed this cycle; the apply
	// phase refreshes occ from them (duplicates are harmless).
	touched []int32

	routeScratch []int
}

// newShardEngine partitions the net's routers into k contiguous shards
// balanced by lane count. k is already clamped to [2, routers].
func newShardEngine(n *Net, k int) *shardEngine {
	e := &shardEngine{
		n:             n,
		shardOfRouter: make([]int32, len(n.routers)),
		shardOfLane:   make([]int32, len(n.laneRouter)),
		occ:           make([]int32, len(n.laneRouter)),
		pushedStamp:   make([]uint64, len(n.laneRouter)),
		popStamp:      make([]uint64, len(n.laneRouter)),
		pubRank:       make([]int64, k),
	}
	totalLanes := len(n.laneRouter)
	routers := len(n.routers)
	// laneEnd(r) = lanes covered by routers [0, r).
	laneEnd := func(r int) int {
		if r == routers {
			return totalLanes
		}
		return int(n.laneBase[r])
	}
	r := 0
	for s := 0; s < k; s++ {
		first := r
		// Take routers until this shard reaches its cumulative lane share,
		// always at least one, leaving one for each remaining shard.
		target := (totalLanes * (s + 1)) / k
		r++
		for r < routers-(k-s-1) && laneEnd(r) < target {
			r++
		}
		if s == k-1 {
			r = routers
		}
		sh := &shardState{
			n:           n,
			idx:         s,
			firstRouter: first,
			lastRouter:  r,
			firstLane:   n.laneBase[first],
		}
		if r < routers {
			sh.lastLane = n.laneBase[r]
		} else {
			sh.lastLane = int32(totalLanes)
		}
		if n.cfg.VirtualChannels > 1 {
			sh.bufferedVCDelta = make([]int, n.cfg.VirtualChannels)
		} else {
			sh.bufferedVCDelta = make([]int, 1)
		}
		sh.lanes.grow(totalLanes)
		for rr := first; rr < r; rr++ {
			e.shardOfRouter[rr] = int32(s)
		}
		for id := sh.firstLane; id < sh.lastLane; id++ {
			e.shardOfLane[id] = int32(s)
		}
		e.shards = append(e.shards, sh)
	}
	e.mail = make([][][]mailRec, k)
	for s := range e.mail {
		e.mail[s] = make([][]mailRec, k)
	}
	return e
}

// startWorkers lazily spins up one goroutine per shard; Close stops them.
func (e *shardEngine) startWorkers() {
	e.work = make([]chan int, len(e.shards))
	for i := range e.shards {
		ch := make(chan int, 1)
		e.work[i] = ch
		s := e.shards[i]
		go func() {
			for code := range ch {
				switch code {
				case phaseInject:
					s.injectPhase()
				case phaseRoute:
					s.routeRound()
				case phaseApply:
					s.applyPhase()
				case phaseExit:
					e.wg.Done()
					return
				}
				e.wg.Done()
			}
		}()
	}
	e.started = true
}

// runPhase dispatches one phase to every worker and waits for the barrier.
// The channel send orders the coordinator's writes before the workers'
// reads; the WaitGroup orders the workers' writes before the coordinator's
// (and, through the next dispatch, every other worker's) reads.
func (e *shardEngine) runPhase(code int) {
	e.wg.Add(len(e.shards))
	for _, ch := range e.work {
		ch <- code
	}
	e.wg.Wait()
}

// Close releases the worker goroutines of a sharded net. Nets running the
// serial engine have none; Close is always safe to call (and to call
// again). A sharded net that keeps ticking after Close transparently
// restarts its workers.
func (n *Net) Close() {
	e := n.sh
	if e == nil || !e.started {
		return
	}
	e.runPhase(phaseExit)
	e.started = false
}

// Shards returns the number of engine shards the net runs: 1 for the
// serial engine (including every CR, dense-reference, or acceptor-guarded
// net), the partition size otherwise.
func (n *Net) Shards() int {
	if n.sh == nil {
		return 1
	}
	return len(n.sh.shards)
}

// unshard migrates a sharded net back onto the serial engine, merging the
// per-shard worklists and wake heaps into the global ones. Used when an
// acceptance check is installed (acceptors can reject, and rejection kills;
// the sharded engine excludes kills by construction). Only safe between
// cycles, which is the only time the engine surface is reachable.
func (n *Net) unshard() {
	e := n.sh
	if e == nil {
		return
	}
	n.Close()
	n.sh = nil
	for _, s := range e.shards {
		for _, id := range s.lanes.sorted {
			n.lanes.add(id)
		}
		for _, id := range s.lanes.added {
			n.lanes.add(id)
		}
		for _, fi := range s.ready.sorted {
			n.ready.add(fi)
		}
		for _, fi := range s.ready.added {
			n.ready.add(fi)
		}
		for _, en := range s.wake.h {
			n.wake.push(en.at, en.flow)
		}
	}
}

// tickOnce advances one sharded cycle: inject barrier, route rounds,
// apply barrier, then the serial epilogue (slab merges, mailbox-free
// bookkeeping, observability replay).
func (e *shardEngine) tickOnce() {
	if !e.started {
		e.startWorkers()
	}
	e.runPhase(phaseInject)
	for i := range e.pubRank {
		e.pubRank[i] = -1
	}
	for {
		e.runPhase(phaseRoute)
		e.roundCount++
		done := true
		for i, s := range e.shards {
			e.pubRank[i] = s.myPubRank
			if s.pos < len(s.prog) {
				done = false
			}
		}
		if done {
			break
		}
	}
	e.runPhase(phaseApply)
	e.epilogue()
}

// idleCycles is the sharded twin of Net.idleCycles: the barrier agrees on
// the global minimum wake cycle across every shard's heap.
func (e *shardEngine) idleCycles(budget int) int {
	for _, s := range e.shards {
		if len(s.lanes.sorted)+len(s.lanes.added)+len(s.ready.sorted)+len(s.ready.added) > 0 {
			return 0
		}
	}
	have := false
	var next uint64
	for _, s := range e.shards {
		if s.wake.len() > 0 && (!have || s.wake.minAt() < next) {
			next = s.wake.minAt()
			have = true
		}
	}
	if !have {
		return budget
	}
	if next <= e.n.cycle+1 {
		return 0
	}
	skip := next - e.n.cycle - 1
	if skip > uint64(budget) {
		return budget
	}
	return int(skip)
}

// epilogue runs on the coordinator after the apply barrier: merge the
// per-shard slabs into the global counters in shard order, apply the
// deferred source-queue decrements, recycle delivered worms, and replay
// the buffered observability emissions in serial order.
func (e *shardEngine) epilogue() {
	n := e.n
	for _, s := range e.shards {
		n.stats.FlitMoves += s.flitMoves
		n.stats.LatencySum += s.latencySum
		n.stats.LatencyCount += s.latencyCount
		if s.latencyMax > n.stats.LatencyMax {
			n.stats.LatencyMax = s.latencyMax
		}
		n.inflight += s.inflightDelta
		n.queuedWorms += s.queuedWormsDelta
		n.recvqTotal += s.recvqDelta
		if n.gauges != nil {
			n.buffered += s.bufferedDelta
			for vc, d := range s.bufferedVCDelta {
				if vc < len(n.bufferedVC) {
					n.bufferedVC[vc] += d
				}
			}
		}
		for _, src := range s.srcDecs {
			n.queued[src]--
		}
		for _, w := range s.wormPool {
			w.packet = network.Packet{}
			n.wormPool = append(n.wormPool, w)
		}
		s.flitMoves, s.latencySum, s.latencyCount, s.latencyMax = 0, 0, 0, 0
		s.inflightDelta, s.queuedWormsDelta, s.recvqDelta, s.bufferedDelta = 0, 0, 0, 0
		for vc := range s.bufferedVCDelta {
			s.bufferedVCDelta[vc] = 0
		}
		s.srcDecs = s.srcDecs[:0]
		s.wormPool = s.wormPool[:0]
		s.prepared = false
	}
	if n.obs != nil {
		e.replayObs()
	}
}

// replayObs re-emits the buffered observability records through the real
// scope, single-threaded, in the serial engine's order: inject-phase
// records merged across shards by flow order index (each shard's buffer is
// already ascending), then route-phase buffers concatenated in shard order
// (shard lane ranges are ascending, so concatenation is the serial lane
// order). Replaying through the scope allocates span ids and counter
// increments exactly as the serial engine would.
func (e *shardEngine) replayObs() {
	n := e.n
	for {
		best := -1
		for i, s := range e.shards {
			if len(s.injectObs) == 0 {
				continue
			}
			if best < 0 || s.injectObs[0].key < e.shards[best].injectObs[0].key {
				best = i
			}
		}
		if best < 0 {
			break
		}
		s := e.shards[best]
		emit(n, s.injectObs[0])
		s.injectObs = s.injectObs[1:]
	}
	for _, s := range e.shards {
		for _, rec := range s.routeObs {
			emit(n, rec)
		}
		s.injectObs = s.injectObs[:0]
		s.routeObs = s.routeObs[:0]
	}
}

func emit(n *Net, rec obsRec) {
	if rec.span {
		n.obs.Span(rec.name, rec.from, rec.to, rec.msg, rec.pkt, rec.parent)
		return
	}
	n.obs.Event(rec.name, rec.from, rec.msg, rec.pkt, rec.parent)
}

// rankOf is a lane's position in the serial route order for the current
// cycle: ports ascend, and within a port the virtual-channel priority is
// rotated by the cycle number. With one channel the rank is the lane id.
func (e *shardEngine) rankOf(id int32) int64 {
	vcs := e.n.cfg.VirtualChannels
	if vcs == 1 {
		return int64(id)
	}
	rot := (int(id)%vcs - int(e.n.cycle%uint64(vcs)) + vcs) % vcs
	return (int64(id)/int64(vcs))*int64(vcs) + int64(rot)
}

// --- worker phases ------------------------------------------------------

// injectPhase is the per-shard twin of Net.injectPhase over the shard's
// flows. Flows of different shards share no node, lane, or queue state, so
// the phases compose without ordering; only the buffered wait spans need
// the cross-shard merge by flow index.
func (s *shardState) injectPhase() {
	n := s.n
	for s.wake.len() > 0 && s.wake.minAt() <= n.cycle {
		s.ready.add(s.wake.pop())
	}
	s.ready.merge()
	keep := s.ready.sorted[:0]
	for _, fi := range s.ready.sorted {
		if s.injectFlow(n.order[fi], n.flowSeq[fi]) {
			keep = append(keep, fi)
		} else {
			s.ready.mark[fi] = false
		}
	}
	s.ready.sorted = keep
}

func (s *shardState) injectFlow(key flowKey, f *flow) bool {
	s.injectFlowStep(key, f)
	if f.active != nil {
		return f.active.state == wormInjecting
	}
	if f.pending() == 0 {
		return false
	}
	if front := f.front(); front.wakeAt > s.n.cycle {
		s.wake.push(front.wakeAt, f.idx)
		return false
	}
	return true
}

func (s *shardState) injectFlowStep(key flowKey, f *flow) {
	n := s.n
	if f.active == nil && n.injecting[key.src] == nil {
		f.active = s.startNext(f)
		if f.active != nil {
			n.injecting[key.src] = f.active
		}
	}
	w := f.active
	if w == nil || w.state != wormInjecting || n.injMark[key.src] == n.cycle {
		return
	}
	if n.injecting[key.src] != w {
		return
	}
	srcRouter, srcPort := n.cfg.Topology.NodePort(key.src)
	if n.routers[srcRouter].inputs[srcPort][w.srcVC].full() {
		if w.sent == 0 {
			s.noteBlocked(w)
		}
		return
	}
	s.pushLocal(srcRouter, srcPort, w.srcVC, flit{worm: w, kind: n.flitKind(w), arrived: n.cycle})
	w.sent++
	n.injMark[key.src] = n.cycle
	if w.sent == w.flits {
		w.state = wormInFlight
		n.injecting[key.src] = nil
		// The sharded engine never runs CR, so flows always pipeline.
		f.active = nil
	}
}

func (s *shardState) startNext(f *flow) *worm {
	n := s.n
	w := f.nextAwake(n.cycle)
	if w == nil {
		return nil
	}
	s.queuedWormsDelta--
	w.state = wormInjecting
	w.blocked = 0
	if n.obs != nil {
		name := "flit.wait.queue"
		if w.retries > 0 {
			name = "flit.wait.backoff"
		}
		msg, pkt, parent := w.identity()
		s.injectObs = append(s.injectObs, obsRec{
			span: true, name: name, from: w.waitFrom, to: n.cycle,
			msg: msg, pkt: pkt, parent: parent, key: f.idx,
		})
	}
	w.startedAt = n.cycle
	w.srcVC = int(w.id) % n.cfg.VirtualChannels
	s.inflightDelta++
	return w
}

// noteBlocked ages a blocked head. The sharded engine never runs CR, so
// there is no kill timeout; the stall counter still feeds the
// flit.wait.blocked span. The head flit (or its not-yet-injected worm)
// lives in exactly one shard, so the worm fields have a single writer.
func (s *shardState) noteBlocked(w *worm) {
	w.blocked++
	w.stallCycles++
}

// buildProg expands this cycle's active lanes into the serial visiting
// order: ports ascending, virtual channels rotated per cycle within each
// occupied port group.
func (s *shardState) buildProg() {
	n := s.n
	s.lanes.merge()
	s.prog = s.prog[:0]
	s.pos = 0
	vcs := n.cfg.VirtualChannels
	lanes := s.lanes.sorted
	if vcs == 1 {
		s.prog = append(s.prog, lanes...)
		return
	}
	for i := 0; i < len(lanes); {
		group := lanes[i] / int32(vcs)
		j := i + 1
		for j < len(lanes) && lanes[j]/int32(vcs) == group {
			j++
		}
		base := group * int32(vcs)
		for v := 0; v < vcs; v++ {
			vc := (v + int(n.cycle)) % vcs
			id := base + int32(vc)
			for k := i; k < j; k++ {
				if lanes[k] == id {
					s.prog = append(s.prog, id)
					break
				}
			}
		}
		i = j
	}
}

// routeRound advances the shard's route position until it finishes or
// parks on an undecided cross-shard dependency, then publishes its
// progress watermark for the next round.
func (s *shardState) routeRound() {
	e := s.n.sh
	if !s.prepared {
		s.buildProg()
		s.prepared = true
	}
	for s.pos < len(s.prog) {
		id := s.prog[s.pos]
		r := int(s.n.laneRouter[id])
		port := int(s.n.lanePort[id])
		vc := int(id) % s.n.cfg.VirtualChannels
		if !s.advanceLane(r, port, vc, id, e.rankOf(id)) {
			break // parked: resume here next round
		}
		s.pos++
	}
	if s.pos == len(s.prog) {
		s.myPubRank = math.MaxInt64
	} else {
		s.myPubRank = e.rankOf(s.prog[s.pos])
	}
}

// applyPhase drains the shard's incoming mailboxes in source-shard order,
// refreshes the occupancy snapshot of every touched lane, and compacts the
// drained lanes out of the worklist — the same end-of-cycle worklist state
// the serial engine's in-phase compaction reaches.
func (s *shardState) applyPhase() {
	n := s.n
	e := n.sh
	for src := range e.shards {
		box := e.mail[src][s.idx]
		for _, m := range box {
			r := int(n.laneRouter[m.id])
			port := int(n.lanePort[m.id])
			vc := int(m.id) % n.cfg.VirtualChannels
			n.routers[r].inputs[port][vc].push(m.fl)
			s.lanes.add(m.id)
			s.touched = append(s.touched, m.id)
		}
		e.mail[src][s.idx] = box[:0]
	}
	for _, id := range s.touched {
		r := int(n.laneRouter[id])
		port := int(n.lanePort[id])
		vc := int(id) % n.cfg.VirtualChannels
		e.occ[id] = int32(n.routers[r].inputs[port][vc].len())
	}
	s.touched = s.touched[:0]
	keep := s.lanes.sorted[:0]
	for _, id := range s.lanes.sorted {
		r := int(n.laneRouter[id])
		port := int(n.lanePort[id])
		vc := int(id) % n.cfg.VirtualChannels
		if n.routers[r].inputs[port][vc].len() > 0 {
			keep = append(keep, id)
		} else {
			s.lanes.mark[id] = false
		}
	}
	s.lanes.sorted = keep
}

// --- flit movement ------------------------------------------------------

// pushLocal places a flit into one of the shard's own lanes (injection, or
// an intra-shard hop).
func (s *shardState) pushLocal(r, port, vc int, fl flit) {
	id := s.n.laneID(r, port, vc)
	s.n.routers[r].inputs[port][vc].push(fl)
	s.lanes.add(id)
	s.touched = append(s.touched, id)
	if s.n.gauges != nil {
		s.bufferedDelta++
		s.bufferedVCDelta[vc]++
	}
}

// pushTo routes a flit move to the destination lane's owner: a direct push
// when the lane is ours, a mailbox entry (plus the feeder stamp that keeps
// our own later fullness checks exact) when it is not.
func (s *shardState) pushTo(peer, peerPort, vc int, id int32, fl flit) {
	e := s.n.sh
	if e.shardOfLane[id] == int32(s.idx) {
		s.pushLocal(peer, peerPort, vc, fl)
		return
	}
	dst := e.shardOfLane[id]
	e.mail[s.idx][dst] = append(e.mail[s.idx][dst], mailRec{id: id, fl: fl})
	e.pushedStamp[id] = s.n.cycle
	if s.n.gauges != nil {
		s.bufferedDelta++
		s.bufferedVCDelta[vc]++
	}
}

// popFront consumes a lane's front flit, stamping the pop for cross-shard
// fullness checks.
func (s *shardState) popFront(buf *laneFIFO, vc int, id int32) {
	buf.pop()
	s.n.sh.popStamp[id] = s.n.cycle
	s.touched = append(s.touched, id)
	if s.n.gauges != nil {
		s.bufferedDelta--
		s.bufferedVCDelta[vc]--
	}
}

// laneFull answers "is lane id full at serial position rank?". For owned
// lanes the FIFO itself is exact (the shard executes its own lanes in
// serial order). For foreign lanes the answer combines the start-of-cycle
// snapshot, our own feeder stamp, and — only when the lane ranks earlier
// and its owner has published past it — the owner's pop stamp. Returns
// ok=false when the answer depends on an unpublished pop (the caller
// parks).
func (s *shardState) laneFull(id int32, rank int64) (full, ok bool) {
	n := s.n
	e := n.sh
	owner := e.shardOfLane[id]
	if owner == int32(s.idx) {
		r := int(n.laneRouter[id])
		port := int(n.lanePort[id])
		vc := int(id) % n.cfg.VirtualChannels
		return n.routers[r].inputs[port][vc].full(), true
	}
	occ := int(e.occ[id])
	if e.pushedStamp[id] == n.cycle {
		occ++
	}
	if occ < n.cfg.BufferFlits {
		return false, true
	}
	lr := e.rankOf(id)
	if lr > rank {
		return true, true // its pop, if any, happens after us in serial order
	}
	if lr >= e.pubRank[owner] {
		return false, false // undecided: owner has not visited it yet
	}
	if e.popStamp[id] == n.cycle {
		occ--
	}
	return occ >= n.cfg.BufferFlits, true
}

// advanceLane is the sharded twin of Net.advanceLane. It returns false
// when the move depends on an unpublished cross-shard pop (park; the
// caller retries next round — nothing has been mutated). Differences from
// the serial twin are confined to unobservable bookkeeping: the claim list
// and the blocked-age reset are skipped (both only feed CR kills, which
// cannot occur here), and all counters go to the shard slabs.
func (s *shardState) advanceLane(r, port, vc int, id int32, rank int64) bool {
	n := s.n
	rt := &n.routers[r]
	buf := &rt.inputs[port][vc]
	if buf.len() == 0 {
		return true
	}
	fl := *buf.front()
	if fl.arrived == n.cycle {
		return true
	}
	w := fl.worm
	if w.state == wormKilled || w.state == wormFailed {
		s.popFront(buf, vc, id)
		return true
	}

	var out lane
	if buf.claimW == w {
		out = buf.claim
	} else if fl.kind == flitHead {
		claimed, ok, parked := s.routeHead(r, port, vc, id, w, rank)
		if parked {
			return false
		}
		if !ok {
			return true
		}
		out = claimed
	} else {
		s.popFront(buf, vc, id)
		return true
	}
	if rt.outUsed[out.port] == n.cycle {
		return true
	}

	h := rt.link[out.port]
	if h.node != topology.Terminal {
		s.popFront(buf, vc, id)
		rt.outUsed[out.port] = n.cycle
		s.flitMoves++
		if n.linkObs != nil {
			n.linkObs[r][out.port].Inc()
		}
		if fl.kind == flitTail {
			s.finishWorm(rt, buf, w, int(h.node))
		}
		return true
	}
	peer, peerPort := int(h.peer), int(h.peerPort)
	tgt := n.laneID(peer, peerPort, out.vc)
	full, ok := s.laneFull(tgt, rank)
	if !ok {
		return false
	}
	if full {
		if fl.kind == flitHead {
			s.noteBlocked(w)
		}
		return true
	}
	s.popFront(buf, vc, id)
	fl.arrived = n.cycle
	s.pushTo(peer, peerPort, out.vc, tgt, fl)
	rt.outUsed[out.port] = n.cycle
	s.flitMoves++
	if n.linkObs != nil {
		n.linkObs[r][out.port].Inc()
	}
	if fl.kind == flitTail {
		rt.release(buf)
	}
	return true
}

// routeHead is the sharded twin of Net.routeHead. parked reports an
// undecided downstream fullness check; no state has been mutated in that
// case, so the retried call replays the candidate walk identically. Kills
// cannot occur here: acceptors force the serial engine, and a misroute or
// unroutable head is a topology bug.
func (s *shardState) routeHead(r, port, vc int, id int32, w *worm, rank int64) (out lane, ok, parked bool) {
	n := s.n
	rt := &n.routers[r]
	s.routeScratch = n.cfg.Topology.RouteAppend(r, port, w.packet.Dst, s.routeScratch[:0])
	cands := s.routeScratch
	if len(cands) == 0 {
		panic("flitnet: unroutable worm in a sharded run")
	}
	if n.cfg.Mode != Adaptive {
		cands = cands[:1]
	}
	vcs := n.cfg.VirtualChannels
	buf := &rt.inputs[port][vc]
	for ci, cand := range cands {
		h := rt.link[cand]
		if node := int(h.node); node != topology.Terminal {
			if rt.outUsed[cand] == n.cycle {
				continue
			}
			ej := lane{cand, -1}
			for v := 0; v < vcs; v++ {
				if rt.owner[cand][v] == nil {
					ej = lane{cand, v}
					break
				}
			}
			if ej.vc < 0 {
				continue
			}
			if node != w.packet.Dst {
				panic("flitnet: misrouted worm in a sharded run")
			}
			rt.owner[ej.port][ej.vc] = w
			buf.claimW, buf.claim = w, ej
			s.popFront(buf, vc, id)
			rt.outUsed[cand] = n.cycle
			s.flitMoves++
			if n.linkObs != nil {
				n.linkObs[r][cand].Inc()
			}
			return lane{}, false, false
		}
		for outVC := 0; outVC < vcs; outVC++ {
			if outVC == 0 && ci != 0 && n.cfg.Mode == Adaptive && vcs > 1 {
				continue
			}
			if rt.owner[cand][outVC] != nil {
				continue
			}
			tgt := n.laneID(int(h.peer), int(h.peerPort), outVC)
			full, decided := s.laneFull(tgt, rank)
			if !decided {
				return lane{}, false, true
			}
			if full {
				continue
			}
			got := lane{cand, outVC}
			rt.owner[got.port][got.vc] = w
			buf.claimW, buf.claim = w, got
			return got, true, false
		}
	}
	s.noteBlocked(w)
	return lane{}, false, false
}

// finishWorm is the sharded twin of Net.finishWorm. The delivering router
// owns the destination node, so the receive queue push is shard-local; the
// source-queue decrement (the source may live anywhere) defers to the
// epilogue, and the flow-reactivation branch vanishes — without CR a
// flow's active slot was already cleared when injection completed.
func (s *shardState) finishWorm(rt *router, buf *laneFIFO, w *worm, node int) {
	n := s.n
	rt.release(buf)
	w.state = wormDelivered
	s.inflightDelta--
	latency := n.cycle - w.injected
	s.latencySum += latency
	s.latencyCount++
	if latency > s.latencyMax {
		s.latencyMax = latency
	}
	if n.obs != nil {
		msg, pkt, parent := w.identity()
		s.routeObs = append(s.routeObs, obsRec{
			span: true, name: "flit.xfer", from: w.startedAt, to: n.cycle,
			msg: msg, pkt: pkt, parent: parent,
		})
		if w.stallCycles > 0 {
			s.routeObs = append(s.routeObs, obsRec{
				span: true, name: "flit.wait.blocked", from: n.cycle - w.stallCycles, to: n.cycle,
				msg: msg, pkt: pkt, parent: parent,
			})
		}
		s.routeObs = append(s.routeObs, obsRec{
			name: "flit.delivered", from: n.cycle,
			msg: msg, pkt: pkt, parent: parent,
		})
	}
	n.recvq[node].push(w.packet)
	s.recvqDelta++
	s.srcDecs = append(s.srcDecs, int32(w.packet.Src))
	s.wormPool = append(s.wormPool, w)
}
