package obs

import "fmt"

// Causal per-message span tracing.
//
// Every traced event can carry a message identity (MsgID), a packet
// identity (PktID), and span linkage (SpanID/Parent), so a flat event
// stream reconstructs into per-message span trees: protocol send entry →
// NI injection → flit transit → destination handler completion. The API is
// built like the rest of the layer — nil scopes are the disabled state,
// the hot path allocates nothing (context switches are plain field stores,
// the span stack reuses its backing array), and all ids are allocated from
// hub-global counters so traces are deterministic and collision-free.
//
// Identity flows across nodes through the packet: the sender stamps its
// (msg, span, pkt) context into the staged packet (see internal/cmam and
// internal/ni), and the receiver's dispatch adopts it for the duration of
// the handler, so acknowledgements and replies emitted inside handlers
// inherit the message that caused them — the causal chain closes back at
// the source without any protocol-specific plumbing.

// newSpanID allocates a span id (1-based; 0 means "no span").
func (h *Hub) newSpanID() uint64 { h.nextSpan++; return h.nextSpan }

// newMsgID allocates a message id (1-based; 0 means "unattributed").
func (h *Hub) newMsgID() uint64 { h.nextMsg++; return h.nextMsg }

// newPktID allocates a packet id (1-based; 0 means "no packet").
func (h *Hub) newPktID() uint64 { h.nextPkt++; return h.nextPkt }

// spanFrame is one open builder span on a node's span stack.
type spanFrame struct {
	name   string
	id     uint64
	parent uint64
	msg    uint64
	pkt    uint64
	ts     uint64
	round  uint64
}

// topSpan returns the innermost open builder span's id, 0 when none.
func (s *NodeScope) topSpan() uint64 {
	if n := len(s.stack); n > 0 {
		return s.stack[n-1].id
	}
	return 0
}

// NewMsg allocates a fresh message identity and makes it the scope's
// current one: subsequent events and sends on this node attribute to it
// until the context is swapped. Protocol send entries call this once per
// logical message.
func (s *NodeScope) NewMsg() uint64 {
	if s == nil || !s.hub.enabled.Load() {
		return 0
	}
	s.curMsg = s.hub.newMsgID()
	s.curPkt = 0
	return s.curMsg
}

// SwapMsg makes msg the scope's current message identity and returns the
// previous one, so pump loops can enter a transfer's context and restore
// the caller's afterwards. Entering a different message clears the packet
// context (it belonged to the previous message).
func (s *NodeScope) SwapMsg(msg uint64) uint64 {
	if s == nil {
		return 0
	}
	prev := s.curMsg
	if msg != prev {
		s.curMsg = msg
		s.curPkt = 0
	}
	return prev
}

// CurrentMsg returns the scope's current message identity, 0 when none.
func (s *NodeScope) CurrentMsg() uint64 {
	if s == nil {
		return 0
	}
	return s.curMsg
}

// NewPkt allocates a packet identity within the current message and makes
// it the scope's current one. The CMAM send path calls it once per staged
// packet.
func (s *NodeScope) NewPkt() uint64 {
	if s == nil || !s.hub.enabled.Load() {
		return 0
	}
	s.curPkt = s.hub.newPktID()
	return s.curPkt
}

// MsgContext returns the identity an outgoing packet should carry: the
// current message and the innermost open builder span (the packet's causal
// parent at the destination).
func (s *NodeScope) MsgContext() (msg, span uint64) {
	if s == nil {
		return 0, 0
	}
	return s.curMsg, s.topSpan()
}

// Span is a handle on one open builder span. The zero value is the
// disabled state: End on it is a no-op.
type Span struct {
	scope *NodeScope
	id    uint64
}

// StartSpan opens a builder span on the node: a duration event that will
// cover everything recorded until the matching End, nested under the
// innermost open span and attributed to the current message context.
// Spans close in LIFO order (End pops the stack).
func (s *NodeScope) StartSpan(name string) Span {
	if s == nil || !s.hub.enabled.Load() {
		return Span{}
	}
	id := s.hub.newSpanID()
	s.stack = append(s.stack, spanFrame{
		name:   name,
		id:     id,
		parent: s.topSpan(),
		msg:    s.curMsg,
		pkt:    s.curPkt,
		ts:     s.hub.Trace.Now(),
		round:  s.hub.round,
	})
	return Span{scope: s, id: id}
}

// End closes the span, recording a PhaseComplete trace event spanning from
// StartSpan to now. Mismatched ends (a bug, or a span started while the
// hub was disabled) are dropped rather than corrupting the stack.
func (sp Span) End() {
	s := sp.scope
	if s == nil {
		return
	}
	n := len(s.stack)
	if n == 0 || s.stack[n-1].id != sp.id {
		return
	}
	f := s.stack[n-1]
	s.stack = s.stack[:n-1]
	end := s.hub.Trace.Now()
	s.hub.Trace.Record(TraceEvent{
		Phase:  PhaseComplete,
		TS:     f.ts,
		Dur:    end - f.ts,
		Round:  f.round,
		Node:   s.node,
		Name:   f.name,
		Proto:  ProtoOfEvent(f.name),
		Axis:   AxisForEvent(f.name),
		MsgID:  f.msg,
		PktID:  f.pkt,
		SpanID: f.id,
		Parent: f.parent,
	})
}

// DispatchCtx saves a node's message context across a handler dispatch so
// EndDispatch can restore it. The zero value is the disabled state.
type DispatchCtx struct {
	prevMsg, prevPkt uint64
	span             Span
}

// BeginDispatch enters the destination-handler context for a received
// packet: the node's current message/packet identity becomes the packet's,
// and a handler span is opened whose parent is the sender's span (link) —
// the cross-node edge of the causal chain. Pair with EndDispatch.
func (s *NodeScope) BeginDispatch(name string, msg, link, pkt uint64) DispatchCtx {
	if s == nil || !s.hub.enabled.Load() {
		return DispatchCtx{}
	}
	ctx := DispatchCtx{prevMsg: s.curMsg, prevPkt: s.curPkt}
	s.curMsg, s.curPkt = msg, pkt
	id := s.hub.newSpanID()
	s.stack = append(s.stack, spanFrame{
		name:   name,
		id:     id,
		parent: link,
		msg:    msg,
		pkt:    pkt,
		ts:     s.hub.Trace.Now(),
		round:  s.hub.round,
	})
	ctx.span = Span{scope: s, id: id}
	return ctx
}

// EndDispatch closes the handler span and restores the pre-dispatch
// message context.
func (s *NodeScope) EndDispatch(ctx DispatchCtx) {
	if s == nil || ctx.span.scope == nil {
		return
	}
	ctx.span.End()
	s.curMsg, s.curPkt = ctx.prevMsg, ctx.prevPkt
}

// flitEventEntry caches what the flit hot path needs for one event or
// span name: the name's id in the scope's tracer, its axis, and (for
// instant events) its mirroring counter.
type flitEventEntry struct {
	key     string
	counter *Counter // nil until the name is first recorded as an instant
	axis    Axis
	name    uint32
}

// FlitScope records flit-level transit events for the wormhole simulator
// (internal/flitnet): worm queueing, injection waits, backpressure, CR
// kill/retry/backoff, and delivery — the transit leg of a message's causal
// span tree. A nil scope is the disabled state. Every instant event is
// mirrored into a protocol_events_total counter exactly like node events,
// so per-message attribution reconciles against the registry.
//
// All emission sites live in the engine functions shared by the dense and
// event-driven steppers, so a trace is byte-identical across both engines.
type FlitScope struct {
	hub *Hub
	// events holds one entry per name, in first-seen order. The engine
	// emits under ten names, so a linear search beats hashing the name.
	events []flitEventEntry
	trace  *Tracer // the tracer the cached symbol ids belong to
	proto  uint32  // flitProto's id in trace
}

// FlitScope returns the recording scope for the flit-level network.
func (h *Hub) FlitScope() *FlitScope { return &FlitScope{hub: h} }

// flitProto is the protocol/subsystem label flit events are filed under.
const flitProto = "flitnet"

// on reports whether the scope should record.
func (s *FlitScope) on() bool { return s != nil && s.hub.enabled.Load() }

// entry resolves the cached entry for an event or span name, interning the
// name on first sight. The ids follow the hub's tracer, which callers may
// replace between runs. The pointer is valid until the next entry call.
func (s *FlitScope) entry(name string) *flitEventEntry {
	if s.trace != s.hub.Trace {
		s.trace = s.hub.Trace
		s.proto = s.trace.intern(flitProto)
		for i := range s.events {
			s.events[i].name = s.trace.intern(s.events[i].key)
		}
	}
	for i := range s.events {
		if s.events[i].key == name {
			return &s.events[i]
		}
	}
	s.events = append(s.events, flitEventEntry{key: name, axis: AxisForEvent(name), name: s.trace.intern(name)})
	return &s.events[len(s.events)-1]
}

// Event records a named flit-level instant event at a simulator cycle,
// attributed to a message, packet, and parent span.
func (s *FlitScope) Event(name string, cycle, msg, pkt, parent uint64) {
	if !s.on() {
		return
	}
	e := s.entry(name)
	if e.counter == nil {
		e.counter = s.hub.Metrics.Counter(Key{Name: "protocol_events_total", Node: -1, Proto: flitProto, Event: name})
	}
	e.counter.Inc()
	s.trace.add(TraceRecord{
		Round: cycle, Node: -1, Name: e.name, Proto: s.proto, Axis: e.axis,
		MsgID: msg, PktID: pkt, Parent: parent,
	})
}

// FlitGauges is the set of occupancy gauges the flit simulator publishes
// once per advanced cycle: the state the timeline sampler turns into
// utilization series. All values are absolute occupancies (not deltas), so
// publishing them after an idle fast-forward jump yields the same series
// as publishing them every cycle — the state did not change in between.
// A nil FlitGauges is the disabled state.
type FlitGauges struct {
	// InflightWorms is the number of worms currently in the network.
	InflightWorms *Level
	// InjectBacklog is the number of worms queued behind injection
	// backpressure (accepted by Inject, not yet head-injected).
	InjectBacklog *Level
	// RecvqPackets is the number of delivered packets not yet drained by
	// TryRecv.
	RecvqPackets *Level
	// BufferedFlits is the total number of flits resident in router input
	// buffers across all lanes.
	BufferedFlits *Level
	// VCFlits holds per-virtual-channel buffered-flit gauges (VC queue
	// depth); nil when the network runs a single channel.
	VCFlits []*Level
}

// Gauges resolves the flit-network occupancy gauges, labeled like the
// scope's events (Node: -1, Proto: "flitnet"; per-VC series carry the
// channel as the event label). vcs is the configured virtual-channel
// count; per-VC gauges are only created when vcs > 1.
func (s *FlitScope) Gauges(vcs int) *FlitGauges {
	if s == nil {
		return nil
	}
	k := func(metric, event string) Key {
		return Key{Name: metric, Node: -1, Proto: flitProto, Event: event}
	}
	g := &FlitGauges{
		InflightWorms: s.hub.Metrics.Level(k("flitnet_inflight_worms", "")),
		InjectBacklog: s.hub.Metrics.Level(k("flitnet_inject_backlog_worms", "")),
		RecvqPackets:  s.hub.Metrics.Level(k("flitnet_recvq_packets", "")),
		BufferedFlits: s.hub.Metrics.Level(k("flitnet_buffered_flits", "")),
	}
	if vcs > 1 {
		g.VCFlits = make([]*Level, vcs)
		for vc := 0; vc < vcs; vc++ {
			g.VCFlits[vc] = s.hub.Metrics.Level(k("flitnet_buffered_flits", fmt.Sprintf("vc%d", vc)))
		}
	}
	return g
}

// LinkCounter resolves the per-link utilization counter for one router
// output port: flits moved across that link, labeled with the router id
// and the port as the event label. The flit engine bumps it at every flit
// move; the timeline sampler's per-window deltas over it are the link's
// utilization series (flits per window / window width = busy fraction,
// since a link moves at most one flit per cycle).
func (s *FlitScope) LinkCounter(router, port int) *Counter {
	if s == nil {
		return nil
	}
	return s.hub.Metrics.Counter(Key{
		Name: "flitnet_link_flits_total", Node: router, Proto: flitProto,
		Event: fmt.Sprintf("p%d", port),
	})
}

// Span records a completed flit-level duration event covering cycles
// [from, to], returning the allocated span id. Zero-length spans are
// dropped (and return 0).
func (s *FlitScope) Span(name string, from, to, msg, pkt, parent uint64) uint64 {
	if !s.on() || to <= from {
		return 0
	}
	e := s.entry(name)
	id := s.hub.newSpanID()
	s.trace.add(TraceRecord{
		Phase:  PhaseComplete,
		TS:     from * RoundUnits,
		Dur:    (to - from) * RoundUnits,
		Round:  from,
		Node:   -1,
		Name:   e.name,
		Proto:  s.proto,
		Axis:   e.axis,
		MsgID:  msg,
		PktID:  pkt,
		SpanID: id,
		Parent: parent,
	})
	return id
}
