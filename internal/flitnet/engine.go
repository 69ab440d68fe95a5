package flitnet

import "msglayer/internal/topology"

// The scheduling core is event-driven: per-cycle work is proportional to
// the traffic in flight, not to the topology size.
//
//   - The route phase iterates the active-lane worklist (lanes holding at
//     least one flit) instead of scanning every router × port × virtual
//     channel.
//   - The inject phase iterates the ready-flow worklist (flows that might
//     inject this cycle) instead of walking every flow; flows whose front
//     worm sleeps in retry backoff park in a wake heap keyed by wakeAt.
//   - When both worklists are empty — no flit can move and every pending
//     worm is in backoff — Tick fast-forwards the clock straight to the
//     earliest wakeAt instead of ticking cycle by cycle. The skipped
//     cycles still count into Stats.Cycles.
//
// The contract with the dense scan it replaced is byte-identical results.
// The dense scan visited lanes in ascending (router, port) order with the
// virtual-channel priority rotated each cycle, and flows in first-Inject
// order. Both worklists are bitmaps over ids numbered in exactly those
// orders, so visiting their set bits in ascending order replays the scan.
// Additions made while a cycle runs fold in at the next phase boundary —
// the same cycle the dense scan would first have acted on them, because a
// flit pushed this cycle is skipped until the next one anyway (the
// `arrived == cycle` guard) and a flow made ready mid-phase belongs to the
// very flow being visited. The retained dense stepper (Config.
// DenseReference) exists so tests can hold the engine to that contract.

// Tick advances the simulation by the given number of cycles. Stretches
// where nothing can move — every pending worm in retry backoff, no flit
// buffered anywhere — are fast-forwarded in one jump, up to the requested
// budget, so waiting out a backoff costs O(1) instead of O(idle cycles).
func (n *Net) Tick(cycles int) {
	for cycles > 0 {
		if skip := n.idleCycles(cycles); skip > 0 {
			n.cycle += uint64(skip)
			n.stats.Cycles += uint64(skip)
			n.idleSkipped += uint64(skip)
			cycles -= skip
			if n.observing() {
				n.noteCycle()
			}
			continue
		}
		n.tickOnce()
		cycles--
		if n.observing() {
			n.noteCycle()
		}
	}
}

// TickUntilQuiet advances until no worms remain in flight or queued, up to
// the cycle budget. It returns true if the network drained. The quiet
// check is O(1) (maintained counters) and idle stretches fast-forward, so
// draining a backoff-bound network costs work proportional to the events
// in it, not to the cycles it spans.
func (n *Net) TickUntilQuiet(budget int) bool {
	for budget > 0 {
		if n.quiet() {
			return true
		}
		if skip := n.idleCycles(budget); skip > 0 {
			n.cycle += uint64(skip)
			n.stats.Cycles += uint64(skip)
			n.idleSkipped += uint64(skip)
			budget -= skip
			if n.observing() {
				n.noteCycle()
			}
			continue
		}
		n.tickOnce()
		budget--
		if n.observing() {
			n.noteCycle()
		}
	}
	return n.quiet()
}

// quiet reports whether nothing is queued or in flight. The counters are
// maintained at inject, start, delivery, and kill, making this O(1) where
// it used to rescan every flow.
func (n *Net) quiet() bool {
	return n.inflight == 0 && n.queuedWorms == 0
}

// idleCycles returns how many of the next budget cycles are guaranteed to
// be no-ops: zero unless both worklists are empty (no flit buffered, no
// flow able to inject). With sleepers pending the jump stops one cycle
// short of the earliest wake; with none, the whole budget is idle. The
// dense reference stepper never fast-forwards.
func (n *Net) idleCycles(budget int) int {
	if n.dense {
		return 0
	}
	if n.lanes.count()+n.ready.count() > 0 {
		return 0
	}
	if n.wake.len() == 0 {
		return budget
	}
	next := n.wake.minAt()
	if next <= n.cycle+1 {
		return 0
	}
	skip := next - n.cycle - 1
	if skip > uint64(budget) {
		return budget
	}
	return int(skip)
}

// tickOnce advances one cycle. The phases allocate nothing: the per-cycle
// "who injected / which link carried a flit" sets are cycle-stamped scratch
// slices on the Net and routers, and the worklists are fixed bitmaps.
func (n *Net) tickOnce() {
	n.cycle++
	n.stats.Cycles++
	if n.dense {
		n.denseInjectPhase()
		n.denseRoutePhase()
		return
	}
	n.injectPhase()
	n.routePhase()
}

// --- inject phase ------------------------------------------------------

// injectPhase starts and advances worm injection over the ready-flow
// worklist: one flit per node per cycle, one worm at a time per node (see
// injectFlow). Flows wake from backoff here, and flows that can make no
// progress until an external event leave the list.
func (n *Net) injectPhase() {
	for n.wake.len() > 0 && n.wake.minAt() <= n.cycle {
		n.ready.add(n.wake.pop())
	}
	ready := &n.ready
	ready.fold()
	for i, word := range ready.on {
		for ; word != 0; word &= word - 1 {
			fi := bit(i, word)
			if !n.injectFlow(n.flowSeq[fi]) {
				ready.drop(fi)
			}
		}
	}
}

// denseInjectPhase is the retained reference: every flow, every cycle, in
// first-Inject order.
func (n *Net) denseInjectPhase() {
	for _, f := range n.flowSeq {
		n.injectFlowStep(f)
	}
}

// injectFlow runs one flow's injection step and reports whether the flow
// should stay on the ready worklist. A flow leaves when it has drained
// (Inject or a kill re-queue will re-add it), when its front worm sleeps
// in retry backoff (the wake heap re-adds it at wakeAt), or when a CR worm
// is fully injected and awaiting its tail acceptance (delivery or kill
// re-adds it).
func (n *Net) injectFlow(f *flow) bool {
	n.injectFlowStep(f)
	if f.active != nil {
		return f.active.state == wormInjecting
	}
	if f.pending() == 0 {
		return false
	}
	if front := f.front(); front.wakeAt > n.cycle {
		n.wake.push(front.wakeAt, f.idx)
		return false
	}
	return true
}

// injectFlowStep is one flow's per-cycle injection work: start the next
// awake worm if the node's send path is free, then push one flit — a
// node's NI streams each packet into the network completely before
// beginning the next, so flits of different packets never interleave in
// the source FIFO (which would deadlock wormhole flow control: the first
// worm's body could be trapped behind the second worm's blocked head).
func (n *Net) injectFlowStep(f *flow) {
	src := f.key.src
	if f.active == nil && n.injecting[src] == nil {
		f.active = n.startNext(f)
		if f.active != nil {
			n.injecting[src] = f.active
		}
	}
	w := f.active
	if w == nil || w.state != wormInjecting || n.injMark[src] == n.cycle {
		return
	}
	if n.injecting[src] != w {
		return // another flow's worm holds this node's send path
	}
	in := n.nodeIn[src] + int32(w.srcVC)
	if n.lane[in].full() {
		// The head is stuck at the source; in CR mode a worm that
		// cannot even enter counts as blocked too.
		if w.sent == 0 {
			n.noteBlocked(w)
		}
		return
	}
	n.pushFlit(in, w.srcVC, flit{worm: w, kind: n.flitKind(w), arrived: n.cycle})
	w.sent++
	n.injMark[src] = n.cycle
	if w.sent == w.flits {
		w.state = wormInFlight
		n.injecting[src] = nil
		if n.cfg.Mode != CR {
			// Non-CR flows pipeline: the next worm may start while
			// this one's tail is still traveling.
			f.active = nil
		}
	}
}

// nextAwake pops the flow's next awake worm.
func (f *flow) nextAwake(cycle uint64) *worm {
	if f.pending() == 0 {
		return nil
	}
	if f.front().wakeAt > cycle {
		return nil
	}
	return f.popFront()
}

func (n *Net) startNext(f *flow) *worm {
	w := f.nextAwake(n.cycle)
	if w == nil {
		return nil
	}
	n.queuedWorms--
	w.state = wormInjecting
	w.blocked = 0
	if n.obs != nil {
		// Close the wait that ends here: time in the inject queue on the
		// first attempt, retry backoff on subsequent ones.
		name := "flit.wait.queue"
		if w.retries > 0 {
			name = "flit.wait.backoff"
		}
		msg, pkt, parent := w.identity()
		n.obs.Span(name, w.waitFrom, n.cycle, msg, pkt, parent)
	}
	w.startedAt = n.cycle
	// Rotate injection channels so consecutive worms can bypass a blocked
	// predecessor at the source port.
	w.srcVC = int(w.id) % n.cfg.VirtualChannels
	n.inflight++
	return w
}

// flitKind determines the next flit of a worm being injected.
func (n *Net) flitKind(w *worm) flitKind {
	switch {
	case w.sent == 0:
		return flitHead
	case w.sent == w.flits-1:
		return flitTail
	case w.sent-1 < len(w.packet.Data):
		return flitBody
	default:
		return flitPad
	}
}

// --- route phase -------------------------------------------------------

// routePhase advances at most one flit per occupied input lane per cycle,
// with each physical output port carrying at most one flit per cycle. It
// visits the active-lane bitmap in ascending id order — the dense scan's
// (router, port) order, with the per-cycle virtual-channel rotation applied
// within each port — and drops each lane that has drained at its visit.
func (n *Net) routePhase() {
	lanes := &n.lanes
	lanes.fold()
	vcs := n.cfg.VirtualChannels
	if vcs == 1 {
		for i, word := range lanes.on {
			for ; word != 0; word &= word - 1 {
				id := bit(i, word)
				n.advanceLane(int(n.laneRouter[id]), int(n.lanePort[id]), 0, id)
				if n.lane[id].len() == 0 {
					lanes.drop(id)
				}
			}
		}
		return
	}
	// One (router, port) group is the vcs consecutive ids sharing id/vcs
	// (laneBase is a multiple of vcs, so the quotient is globally unique
	// per physical port). A group is visited once, at its first set bit;
	// its later bits, in this word or — where the group straddles a word
	// boundary — the next, are skipped.
	rot := int(n.cycle % uint64(vcs))
	last := int32(-1)
	for i := range lanes.on {
		// Reread the word: a group visited at the end of the previous
		// word may have dropped its bits here.
		for word := lanes.on[i]; word != 0; word &= word - 1 {
			group := bit(i, word) / int32(vcs)
			if group == last {
				continue
			}
			last = group
			base := group * int32(vcs)
			r, port := int(n.laneRouter[base]), int(n.lanePort[base])
			// The lanes set at the group's visit are the ones to advance
			// and, once drained, drop; a lane added mid-phase waits in
			// added for the next fold.
			var members uint8
			for vc := 0; vc < vcs; vc++ {
				if lanes.has(base + int32(vc)) {
					members |= 1 << vc
				}
			}
			// Rotate virtual-channel priority each cycle for fairness —
			// the same rotation the dense scan applied to all vcs, here
			// restricted to the occupied ones (visiting an empty lane was
			// a no-op).
			for v := 0; v < vcs; v++ {
				vc := rot + v
				if vc >= vcs {
					vc -= vcs
				}
				if members&(1<<vc) != 0 {
					n.advanceLane(r, port, vc, base+int32(vc))
				}
			}
			for vc := 0; vc < vcs; vc++ {
				if id := base + int32(vc); members&(1<<vc) != 0 && n.lane[id].len() == 0 {
					lanes.drop(id)
				}
			}
		}
	}
}

// denseRoutePhase is the retained reference: every lane of every router,
// every cycle.
func (n *Net) denseRoutePhase() {
	vcs := n.cfg.VirtualChannels
	for r := range n.routers {
		for port := range n.routers[r].owner {
			base := n.laneID(r, port, 0)
			for v := 0; v < vcs; v++ {
				vc := (v + int(n.cycle)) % vcs
				n.advanceLane(r, port, vc, base+int32(vc))
			}
		}
	}
}

// advanceLane moves the front flit of input lane id, which is virtual
// channel vc of port port of router r, at most one hop.
func (n *Net) advanceLane(r, port, vc int, id int32) {
	rt := &n.routers[r]
	buf := &n.lane[id]
	if buf.len() == 0 {
		return
	}
	fl := *buf.front()
	if fl.arrived == n.cycle {
		return // moved into this lane this cycle; advances next cycle
	}
	w := fl.worm
	if w.state == wormKilled || w.state == wormFailed {
		n.popFlit(buf, vc)
		return
	}

	var out lane
	if buf.claimW == w {
		// The worm already holds an output lane here — either the head
		// claimed it on an earlier cycle but the link was busy, or this
		// is a body/tail flit following the head.
		out = buf.claim
	} else if fl.kind == flitHead {
		claimed, ok := n.routeHead(r, port, vc, id, w)
		if !ok {
			return // blocked, consumed at a terminal, or killed
		}
		out = claimed
	} else {
		// A body flit with no claim means the worm was killed and swept.
		n.popFlit(buf, vc)
		return
	}
	if rt.outUsed[out.port] == n.cycle {
		return // the physical link already carried a flit this cycle
	}

	h := rt.link[out.port]
	if h.node != topology.Terminal {
		// Delivery: consume the flit; the tail completes the packet.
		n.popFlit(buf, vc)
		rt.outUsed[out.port] = n.cycle
		n.stats.FlitMoves++
		if n.linkObs != nil {
			n.linkObs[r][out.port].Inc()
		}
		if fl.kind == flitTail {
			n.finishWorm(rt, buf, w, int(h.node))
		}
		return
	}
	// Router-to-router hop: needs space downstream on the claimed lane.
	next := h.lane + int32(out.vc)
	if n.lane[next].full() {
		if fl.kind == flitHead {
			n.noteBlocked(w)
		}
		return
	}
	n.popFlit(buf, vc)
	fl.arrived = n.cycle
	n.pushFlit(next, out.vc, fl)
	rt.outUsed[out.port] = n.cycle
	n.stats.FlitMoves++
	if n.linkObs != nil {
		n.linkObs[r][out.port].Inc()
	}
	w.blocked = 0
	if fl.kind == flitTail {
		// The tail releases this lane's claim on the output lane.
		rt.release(buf)
		w.popClaim()
	}
}

// routeHead claims an output lane of router r for the worm whose head is
// at the front of input lane id (virtual channel vc of port), returning
// (lane, true) on success. On rejection the worm is killed; on blocking the
// head stays put; on delivery at a terminal the head is consumed and
// (lane, false) is returned with the claim recorded.
func (n *Net) routeHead(r, port, vc int, id int32, w *worm) (lane, bool) {
	rt := &n.routers[r]
	buf := &n.lane[id]
	cands := n.routeFrom(r, port, buf, w.packet.Dst)
	if len(cands) == 0 {
		n.kill(w, "unroutable")
		return lane{}, false
	}
	if n.cfg.Mode != Adaptive {
		cands = cands[:1]
	}
	vcs := n.cfg.VirtualChannels
	for ci, cand := range cands {
		h := rt.link[cand]
		if node := int(h.node); node != topology.Terminal {
			// Arrival at the destination node: the acceptance check
			// runs as the header begins to arrive. The NI ejects one
			// flit per cycle but reassembles per virtual channel, so
			// each ejection lane can hold a different worm.
			if rt.outUsed[cand] == n.cycle {
				continue
			}
			out := lane{cand, -1}
			for ej := 0; ej < vcs; ej++ {
				if rt.owner[cand][ej] == nil {
					out = lane{cand, ej}
					break
				}
			}
			if out.vc < 0 {
				continue // all ejection lanes busy
			}
			if node != w.packet.Dst {
				n.kill(w, "misroute")
				return lane{}, false
			}
			if a := n.accepts[node]; a != nil && !a(w.packet) {
				n.stats.Rejected++
				n.kill(w, "rejected")
				return lane{}, false
			}
			n.claim(rt, id, out, w)
			n.popFlit(buf, vc) // consume the head
			rt.outUsed[cand] = n.cycle
			n.stats.FlitMoves++
			if n.linkObs != nil {
				n.linkObs[r][cand].Inc()
			}
			w.blocked = 0
			return lane{}, false // head consumed; nothing more to move
		}
		// Virtual-channel discipline: channel 0 is the escape lane,
		// restricted to the deterministic first candidate; higher
		// channels may take any productive candidate.
		for outVC := 0; outVC < vcs; outVC++ {
			if outVC == 0 && ci != 0 && n.cfg.Mode == Adaptive && vcs > 1 {
				continue
			}
			if rt.owner[cand][outVC] != nil {
				continue
			}
			if n.lane[h.lane+int32(outVC)].full() {
				continue
			}
			out := lane{cand, outVC}
			n.claim(rt, id, out, w)
			return out, true
		}
	}
	n.noteBlocked(w)
	return lane{}, false
}

// routeFrom returns the route candidates for dst from input lane in of
// (r, port): the lane's cached route when its last head went to dst, and
// otherwise a fresh Topology.RouteAppend into the lane's cache.
func (n *Net) routeFrom(r, port int, in *laneFIFO, dst int) []int {
	if in.routeDst != dst {
		n.reroute(r, port, in, dst)
	}
	return in.route
}

// reroute is routeFrom's miss path, kept out of line so the hit inlines.
//
//go:noinline
func (n *Net) reroute(r, port int, in *laneFIFO, dst int) {
	in.route = n.cfg.Topology.RouteAppend(r, port, dst, in.route[:0])
	in.routeDst = dst
}

// claim gives w, whose head is at the front of input lane id, output lane
// out of that lane's router rt, recording the claim on the input lane.
func (n *Net) claim(rt *router, id int32, out lane, w *worm) {
	rt.owner[out.port][out.vc] = w
	buf := &n.lane[id]
	buf.claimW, buf.claim = w, out
	w.pushClaim(id)
}

// noteBlocked ages a blocked head and applies the CR kill timeout. The
// stall counter feeds the flit.wait.blocked span emitted at delivery — one
// summary span instead of a per-cycle event, keeping trace volume bounded.
func (n *Net) noteBlocked(w *worm) {
	w.blocked++
	w.stallCycles++
	if n.cfg.Mode == CR && w.blocked > uint64(n.cfg.KillTimeout) {
		n.kill(w, "timeout")
	}
}

// finishWorm completes delivery: the tail has been accepted, which in CR is
// the end-to-end acknowledgement. The worm struct returns to the pool; its
// payload buffer now belongs to the receiver.
func (n *Net) finishWorm(rt *router, buf *laneFIFO, w *worm, node int) {
	rt.release(buf)
	w.popClaim()
	w.state = wormDelivered
	n.inflight--
	latency := n.cycle - w.injected
	n.stats.LatencySum += latency
	n.stats.LatencyCount++
	if latency > n.stats.LatencyMax {
		n.stats.LatencyMax = latency
	}
	if n.obs != nil {
		msg, pkt, parent := w.identity()
		n.obs.Span("flit.xfer", w.startedAt, n.cycle, msg, pkt, parent)
		if w.stallCycles > 0 {
			// The blocked-head summary: stall cycles accumulated anywhere
			// along the path, reported as one span ending at delivery.
			n.obs.Span("flit.wait.blocked", n.cycle-w.stallCycles, n.cycle, msg, pkt, parent)
		}
		n.obs.Event("flit.delivered", n.cycle, msg, pkt, parent)
	}
	n.recvq[node].push(w.packet)
	n.recvqTotal++
	n.queued[w.packet.Src]--
	if f := w.flow; f.active == w {
		f.active = nil
		// A CR flow held its next worm back for this acceptance; let
		// the inject phase look at it again.
		n.ready.add(f.idx)
	}
	n.putWorm(w)
}

// kill tears down a worm's path everywhere — the CR path-release mechanism
// (in non-CR modes it only fires on misroutes, which are topology bugs).
// The sweep visits only the active lanes (a flit can only sit in an
// occupied lane) and the lanes the worm actually claimed, so a kill
// costs O(lanes/64 + occupied lanes + path length) rather than a
// full-topology scan.
// The worm retries after a backoff, re-entering its flow queue at the front
// so transmission order is preserved; retry exhaustion fails the injection
// and recycles the worm and its payload buffer.
func (n *Net) kill(w *worm, reason string) {
	if w.state == wormKilled || w.state == wormFailed {
		return
	}
	w.state = wormKilled
	n.inflight-- // re-queued (or failed) below; no longer in the network
	n.stats.Kills++
	if n.obs != nil {
		msg, pkt, parent := w.identity()
		n.obs.Event(killEventName(reason), n.cycle, msg, pkt, parent)
	}

	// Sweep the worm's flits out of every lane set in either bitmap: a
	// superset of the occupied lanes, since on keeps a lane an earlier
	// kill emptied until the route phase visits and drops it. A miss on
	// an empty lane is a no-op, so sweeping the superset is safe.
	for i, word := range n.lanes.on {
		for word |= n.lanes.added[i]; word != 0; word &= word - 1 {
			id := bit(i, word)
			vc := int(id) % n.cfg.VirtualChannels
			if removed := n.lane[id].filterWorm(w); removed > 0 && n.gauges != nil {
				n.buffered -= removed
				n.bufferedVC[vc] -= removed
			}
		}
	}
	// Release the output lanes the worm still claims, in path order.
	for _, id := range w.claims[w.claimHead:] {
		if buf := &n.lane[id]; buf.claimW == w {
			n.routers[n.laneRouter[id]].release(buf)
		}
	}
	w.claims = w.claims[:0]
	w.claimHead = 0

	f := w.flow
	if f.active == w {
		f.active = nil
	}
	if n.injecting[w.packet.Src] == w {
		n.injecting[w.packet.Src] = nil
	}
	if w.retries >= n.cfg.MaxRetries {
		w.state = wormFailed
		n.stats.FailedWorms++
		n.queued[w.packet.Src]--
		n.stats.Dropped++
		if n.obs != nil {
			msg, pkt, parent := w.identity()
			n.obs.Event("flit.failed", n.cycle, msg, pkt, parent)
		}
		n.putWords(w.packet.Data)
		n.putWorm(w)
		n.ready.add(f.idx) // the flow's next worm may start now
		return
	}
	w.retries++
	n.stats.Retries++
	w.state = wormQueued
	w.sent = 0
	w.blocked = 0
	w.waitFrom = n.cycle
	w.stallCycles = 0
	// Exponential backoff with deterministic per-worm jitter: two worms
	// that killed each other must not retry in lockstep, or they collide
	// and kill each other forever (retry livelock).
	shift := w.retries
	if shift > 6 {
		shift = 6
	}
	backoff := uint64(n.cfg.RetryBackoff) << shift
	jitter := w.id % uint64(n.cfg.RetryBackoff+1)
	w.wakeAt = n.cycle + backoff + jitter
	f.pushFront(w)
	n.queuedWorms++
	// The inject phase will find the front worm sleeping and park the
	// flow in the wake heap until wakeAt.
	n.ready.add(f.idx)
}

// killEventName maps a kill reason to its event-name constant (constants,
// not concatenation, so the kill path allocates nothing).
func killEventName(reason string) string {
	switch reason {
	case "timeout":
		return "flit.kill.timeout"
	case "rejected":
		return "flit.kill.rejected"
	case "misroute":
		return "flit.kill.misroute"
	default:
		return "flit.kill.unroutable"
	}
}
