// Package critpath reconstructs per-message causal timelines from the
// observability layer's trace (internal/obs) and attributes every unit of
// each message's delivery time to what the message was doing: protocol
// work on a node (further split by the paper's Feature axes),
// queueing/transit between nodes, backpressure stalls, and
// retransmission/recovery waits.
//
// The decomposition is exact by construction: each event of a message
// attributes the gap since the message's previous event, so the gaps
// telescope to the message's total latency with no residue. That exactness
// extends to the aggregate level: Reconcile cross-checks the per-message
// event attribution against the metrics registry's counters and demands
// exact equality, so the report provably accounts for everything the run
// recorded.
//
// A critical-path pass chains events across concurrent messages: an event's
// predecessor is the later of the previous event of its own message and the
// previous event on its node, so the backward chain from the run's last
// event is the sequence of happenings that actually gated completion.
package critpath

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"msglayer/internal/obs"
)

// Category classifies what a message was doing (or waiting for) during one
// gap of its lifetime.
type Category uint8

// Categories, in report order.
const (
	// CatWork is protocol execution on a node: handler dispatch, send
	// staging, segment bookkeeping — time the messaging layer is actively
	// spending instructions on the message.
	CatWork Category = iota
	// CatQueueing is time between nodes: network transit plus waiting for
	// the destination's scheduler slot or inject-queue turn.
	CatQueueing
	// CatBackpressure is time stalled behind exhausted buffering.
	CatBackpressure
	// CatRetransmission is recovery time: retries, kills, backoff,
	// duplicate handling — the fault-tolerance wait states.
	CatRetransmission

	numCategories = 4
)

// String names the category.
func (c Category) String() string {
	switch c {
	case CatWork:
		return "work"
	case CatQueueing:
		return "queueing"
	case CatBackpressure:
		return "backpressure"
	case CatRetransmission:
		return "retransmission"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Role is which end of the transfer a gap's closing event executed on.
type Role uint8

// Roles, in report order.
const (
	// RoleSource is the message's originating node.
	RoleSource Role = iota
	// RoleDest is any other node (the receiver side of the transfer).
	RoleDest
	// RoleNetwork is the substrate itself (events with Node == -1).
	RoleNetwork

	numRoles = 3
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleSource:
		return "source"
	case RoleDest:
		return "dest"
	case RoleNetwork:
		return "network"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// numAxes covers obs.AxisOther..obs.AxisFaultTol.
const numAxes = 5

// Message is the reconstructed lifetime of one causal message.
type Message struct {
	// ID is the message identity (hub-allocated, or synthetic for raw
	// flit-level workloads — see Synthetic).
	ID uint64
	// Synthetic marks identities manufactured by the flit simulator for
	// packets no messaging layer traced.
	Synthetic bool
	// Proto is the protocol of the message's first event.
	Proto string
	// SrcNode is the originating node (-1 when the message only ever
	// appeared at network level). DstNode is the first other node seen.
	SrcNode, DstNode int
	// Start and End bound the message in trace time units; Latency is
	// End-Start and exactly equals the sum of ByCategory.
	Start, End, Latency uint64
	// Events counts instant events, Spans completed span events, Packets
	// distinct packet identities.
	Events, Spans, Packets int
	// Retries counts instant events that close a retransmission gap.
	Retries int
	// ByCategory, ByRole, and ByAxis are the exact telescoping
	// decomposition of Latency: each event attributes the gap since the
	// message's previous event (zero for its first). ByAxis covers
	// CatWork gaps only, indexed by obs.Axis.
	ByCategory [numCategories]uint64
	ByRole     [numRoles]uint64
	ByAxis     [numAxes]uint64
}

// PathStep is one hop of the cross-message critical path.
type PathStep struct {
	// Name, Node, MsgID, and Time identify the event.
	Name  string
	Node  int
	MsgID uint64
	Time  uint64
	// Gap is the time since the predecessor step; Cat classifies it.
	Gap uint64
	Cat Category
}

// CriticalPath is the backward chain from the run's last event through the
// predecessors that gated it.
type CriticalPath struct {
	// Steps in time order (earliest first).
	Steps []PathStep
	// Span is the time covered, ByCategory its composition.
	Span       uint64
	ByCategory [numCategories]uint64
}

// Analysis is the full per-message reconstruction of one trace.
type Analysis struct {
	// Messages in origination order (ascending first-event sequence).
	Messages []*Message
	// Unattributed counts events with no message identity.
	Unattributed int
	// TotalEvents is every trace event examined (instants and spans).
	TotalEvents int
	// ByCategory, ByRole, ByAxis aggregate gap time across messages.
	ByCategory [numCategories]uint64
	ByRole     [numRoles]uint64
	ByAxis     [numAxes]uint64
	// Waterfall is work time by role, protocol, and Feature axis, in
	// deterministic (role, proto, axis) order.
	Waterfall []WaterfallRow
	// Latencies holds every message latency, ascending (exact quantiles).
	Latencies []uint64
	// Critical is the cross-message critical path.
	Critical CriticalPath
}

// WaterfallRow is one line of the per-feature cost waterfall.
type WaterfallRow struct {
	Role  Role
	Proto string
	Axis  obs.Axis
	Units uint64
}

// eventTime is the moment an event "happens" on the message timeline: an
// instant's timestamp, a span's close (spans are recorded when they end, so
// this keeps emission order time-ordered).
func eventTime(e *obs.TraceEvent) uint64 {
	if e.Phase == obs.PhaseComplete {
		return e.TS + e.Dur
	}
	return e.TS
}

// retransMarks are the substrings naming recovery events.
var retransMarks = []string{
	"retry", "retransmit", "kill", "timeout", "nack",
	"stale", "reack", "rereply", "failed", "duplicate", "backoff",
}

// ClassifyName attributes an event name alone, without gap context: the
// category its name implies when the preceding event happened on the same
// node. The timeline's per-window breakdowns use it on counter deltas,
// where no per-message gap reconstruction is possible.
func ClassifyName(name string) Category {
	if strings.Contains(name, "backpressure") {
		return CatBackpressure
	}
	for _, m := range retransMarks {
		if strings.Contains(name, m) {
			return CatRetransmission
		}
	}
	if name == "flit.wait.queue" || name == "flit.wait.blocked" {
		return CatQueueing
	}
	return CatWork
}

// gapCategory classifies the gap an event closes, given the category its
// name implies and whether it happened on the node the previous event did:
// work that lands on another node was transit, so it counts as queueing.
func gapCategory(named Category, sameNode bool) Category {
	if named == CatWork && !sameNode {
		return CatQueueing
	}
	return named
}

// Analyze reconstructs per-message timelines from a recorded trace. The
// slice must be in emission order (obs.Tracer.Events returns it that way).
//
// Its working state is O(messages + critical path) plus one byte per event.
// A numbering pass gives each message a dense index in first-appearance
// order, which sizes the Message arena exactly, and records each event's
// name-implied category (classified once per distinct name). A fill pass
// looks each event's message up again and attributes the gap since that
// message's previous event; the only per-message state it keeps besides
// the Message is the previous event's node and the packet ids seen. The
// critical path is found by a backward walk from the last event and read
// off in a forward pass (criticalPath). No per-message maps or growing
// slices are kept, so the allocation count does not grow with the trace.
func Analyze(events []obs.TraceEvent) *Analysis {
	a := &Analysis{TotalEvents: len(events)}
	if len(events) == 0 {
		return a
	}
	ids, class, unattributed := indexEvents(events)
	a.Unattributed = unattributed
	nmsg := int(ids.n)

	msgs := make([]Message, nmsg)
	state := make([]msgState, nmsg)
	var extra []msgPkt // (message, packet) pairs beyond each message's first packet
	var water waterfall
	for i := range events {
		e := &events[i]
		if e.MsgID == 0 {
			continue
		}
		k := ids.get(e.MsgID)
		m, s := &msgs[k], &state[k]
		t := eventTime(e)
		if m.ID == 0 {
			*m = Message{
				ID:        e.MsgID,
				Synthetic: e.MsgID >= syntheticBase,
				Proto:     e.Proto,
				SrcNode:   e.Node,
				DstNode:   e.Node,
				Start:     t,
				End:       t,
			}
			s.node = e.Node
		}
		if m.DstNode == m.SrcNode && e.Node != m.SrcNode && e.Node >= 0 {
			m.DstNode = e.Node
		}
		// The first record is often the mechanism layer (a cmam.send span
		// closes before the protocol's own start event lands); name the
		// message after the protocol driving it once a node-level protocol
		// event shows up (network substrate and flit events don't qualify).
		if m.Proto == "cmam" && e.Node >= 0 && e.Proto != "cmam" && e.Proto != "" &&
			!strings.HasPrefix(e.Name, "net.") {
			m.Proto = e.Proto
		}
		if e.Phase == obs.PhaseComplete {
			m.Spans++
		} else {
			m.Events++
		}
		if p := e.PktID; p != 0 {
			switch {
			case s.firstPkt == 0:
				s.firstPkt, s.lastPkt = p, p
			case p != s.lastPkt:
				s.lastPkt = p
				if p != s.firstPkt {
					extra = append(extra, msgPkt{k, p})
				}
			}
		}

		// The event closes the gap since the message's previous event,
		// clamped at zero: a span's close can precede that event.
		to := max(t, m.End)
		units := to - m.End
		cat := gapCategory(class[i], e.Node == s.node)
		role := roleOf(e.Node, m.SrcNode)
		s.node = e.Node
		m.ByCategory[cat] += units
		m.ByRole[role] += units
		if cat == CatWork {
			m.ByAxis[e.Axis] += units
			if units > 0 {
				water.add(WaterfallRow{Role: role, Proto: e.Proto, Axis: e.Axis}, units)
			}
		}
		if cat == CatRetransmission && e.Phase != obs.PhaseComplete {
			m.Retries++
		}
		m.End = to
		m.Latency = m.End - m.Start
	}
	countPackets(msgs, state, extra)

	if nmsg > 0 {
		a.Messages = make([]*Message, nmsg)
		a.Latencies = make([]uint64, nmsg)
	}
	for k := range msgs {
		m := &msgs[k]
		a.Messages[k] = m
		a.Latencies[k] = m.Latency
		for c := 0; c < numCategories; c++ {
			a.ByCategory[c] += m.ByCategory[c]
		}
		for r := 0; r < numRoles; r++ {
			a.ByRole[r] += m.ByRole[r]
		}
		for x := 0; x < numAxes; x++ {
			a.ByAxis[x] += m.ByAxis[x]
		}
	}
	slices.SortFunc(a.Messages, func(x, y *Message) int {
		if c := cmp.Compare(x.Start, y.Start); c != 0 {
			return c
		}
		return cmp.Compare(x.ID, y.ID)
	})
	slices.Sort(a.Latencies)
	a.Waterfall = water.rows()
	a.Critical = criticalPath(events, class)
	return a
}

// indexEvents is Analyze's numbering pass. It returns the message index
// (every non-zero message id numbered in first-appearance order), each
// event's name-implied category (ClassifyName), and the number of events
// with no message identity.
func indexEvents(events []obs.TraceEvent) (ids *denseIndex, class []Category, unattributed int) {
	idLo, idHi := ^uint64(0), uint64(0)
	for i := range events {
		if id := events[i].MsgID; id != 0 {
			idLo, idHi = min(idLo, id), max(idHi, id)
		}
	}
	ids = newDenseIndex(idLo, idHi, len(events))
	class = make([]Category, len(events))
	names := make(map[string]Category)
	prev := ""
	var prevCat Category
	for i := range events {
		e := &events[i]
		if e.Name != prev || i == 0 {
			c, ok := names[e.Name]
			if !ok {
				c = ClassifyName(e.Name)
				names[e.Name] = c
			}
			prev, prevCat = e.Name, c
		}
		class[i] = prevCat
		if e.MsgID != 0 {
			ids.get(e.MsgID)
		} else {
			unattributed++
		}
	}
	return ids, class, unattributed
}

// denseIndex numbers keys 0, 1, 2, ... in first-seen order. Keys whose
// range is narrow (hub-allocated message ids, the flit simulator's synthetic
// ids) index a flat table; a wider mix falls back to a map.
type denseIndex struct {
	lo   uint64
	slot []int32 // key-lo -> index+1; nil when the range is too wide
	m    map[uint64]int32
	n    int32
}

// newDenseIndex sizes an index for keys in [lo, hi], using a flat table
// when the range holds at most limit keys.
func newDenseIndex(lo, hi uint64, limit int) *denseIndex {
	d := &denseIndex{lo: lo}
	if hi-lo < uint64(limit) {
		d.slot = make([]int32, hi-lo+1)
	} else {
		d.m = make(map[uint64]int32)
	}
	return d
}

// get returns the key's index, numbering it if it is new.
func (d *denseIndex) get(key uint64) int32 {
	if d.slot != nil {
		s := &d.slot[key-d.lo]
		if *s == 0 {
			d.n++
			*s = d.n
		}
		return *s - 1
	}
	k, ok := d.m[key]
	if !ok {
		k = d.n
		d.n++
		d.m[key] = k
	}
	return k
}

// msgState is what the fill pass remembers of a message beyond its
// Message: the node of its previous event, which decides whether the next
// gap was transit, and its first and latest non-zero packet ids.
type msgState struct {
	node              int
	firstPkt, lastPkt uint64
}

// msgPkt records that message msg saw packet pkt, a packet id other than
// its first.
type msgPkt struct {
	msg int32
	pkt uint64
}

// countPackets sets each message's distinct packet count: one for its
// first packet id plus the distinct others recorded in extra. Most messages
// carry a single packet id and never reach extra.
func countPackets(msgs []Message, state []msgState, extra []msgPkt) {
	for k := range msgs {
		if state[k].firstPkt != 0 {
			msgs[k].Packets = 1
		}
	}
	slices.SortFunc(extra, func(x, y msgPkt) int {
		if c := cmp.Compare(x.msg, y.msg); c != 0 {
			return c
		}
		return cmp.Compare(x.pkt, y.pkt)
	})
	for i, p := range extra {
		if i == 0 || p != extra[i-1] {
			msgs[p.msg].Packets++
		}
	}
}

// waterfall accumulates work units per (role, proto, axis). Consecutive
// work gaps usually share a row, so the last row is checked before the
// map.
type waterfall struct {
	list []WaterfallRow
	at   map[WaterfallRow]int // row with Units zeroed -> position in list
	last int
}

func (w *waterfall) add(key WaterfallRow, units uint64) {
	if len(w.list) > 0 {
		if r := &w.list[w.last]; r.Role == key.Role && r.Axis == key.Axis && r.Proto == key.Proto {
			r.Units += units
			return
		}
	}
	if w.at == nil {
		w.at = make(map[WaterfallRow]int)
	}
	i, ok := w.at[key]
	if !ok {
		i = len(w.list)
		w.at[key] = i
		w.list = append(w.list, key)
	}
	w.list[i].Units += units
	w.last = i
}

// rows returns the accumulated rows in (role, proto, axis) order.
func (w *waterfall) rows() []WaterfallRow {
	slices.SortFunc(w.list, func(x, y WaterfallRow) int {
		if x.Role != y.Role {
			return cmp.Compare(x.Role, y.Role)
		}
		if c := strings.Compare(x.Proto, y.Proto); c != 0 {
			return c
		}
		return cmp.Compare(x.Axis, y.Axis)
	})
	return w.list
}

// syntheticBase mirrors the flit simulator's synthetic message-id offset.
const syntheticBase = uint64(1) << 32

// roleOf maps a node to its role relative to a message's source.
func roleOf(node, src int) Role {
	switch {
	case node < 0:
		return RoleNetwork
	case node == src:
		return RoleSource
	default:
		return RoleDest
	}
}

// Quantile returns the exact q-quantile of the message latencies (nearest-
// rank, so it is an observed value, not an interpolation). Zero when no
// messages were reconstructed.
func (a *Analysis) Quantile(q float64) uint64 {
	n := len(a.Latencies)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return a.Latencies[0]
	}
	rank := int(float64(n) * q)
	if float64(rank) < float64(n)*q {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return a.Latencies[rank-1]
}

// MeanLatency returns the average message latency in trace units.
func (a *Analysis) MeanLatency() float64 {
	if len(a.Latencies) == 0 {
		return 0
	}
	var sum uint64
	for _, l := range a.Latencies {
		sum += l
	}
	return float64(sum) / float64(len(a.Latencies))
}

// onPath marks, in Analyze's per-event category bytes, the events the
// critical-path walk visited. Categories fit in the low bits.
const onPath Category = 0x80

// criticalPath chains events across messages: an event's predecessor is the
// nearest earlier event that shares its message or its node (the later of
// its message's previous event and its node's), and the path is the
// backward chain from the run's last event. A backward walk that keeps
// only the current step marks the path in class and counts it; a forward
// pass over the marks then fills Steps at their exact length, clamping
// times and classifying each gap.
func criticalPath(events []obs.TraceEvent, class []Category) CriticalPath {
	var cp CriticalPath
	c := len(events) - 1
	node, msg := events[c].Node, events[c].MsgID
	class[c] |= onPath
	n := 1
	for j := c - 1; j >= 0; j-- {
		e := &events[j]
		if e.Node == node || msg != 0 && e.MsgID == msg {
			node, msg = e.Node, e.MsgID
			class[j] |= onPath
			n++
		}
	}
	cp.Steps = make([]PathStep, n)
	k := 0
	for i, cl := range class {
		if cl&onPath == 0 {
			continue
		}
		e := &events[i]
		s := &cp.Steps[k]
		s.Name, s.Node, s.MsgID, s.Time = e.Name, e.Node, e.MsgID, eventTime(e)
		if k > 0 { // the first step closes no gap
			prev := &cp.Steps[k-1]
			s.Time = max(s.Time, prev.Time)
			s.Gap = s.Time - prev.Time
			s.Cat = gapCategory(cl&^onPath, s.Node == prev.Node)
			cp.ByCategory[s.Cat] += s.Gap
		}
		k++
	}
	if n > 1 {
		cp.Span = cp.Steps[n-1].Time - cp.Steps[0].Time
	}
	return cp
}
