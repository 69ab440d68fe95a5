// Package critpath reconstructs per-message causal span trees from the
// observability layer's trace (internal/obs) and attributes every unit of
// each message's delivery time to a segment: protocol work on a node
// (further split by the paper's Feature axes), queueing/transit between
// nodes, backpressure stalls, and retransmission/recovery waits.
//
// The decomposition is exact by construction: a message's segments
// telescope — each segment runs from the previous event's time to the next
// event's — so they sum to the message's total latency with no residue.
// That exactness extends to the aggregate level: Reconcile cross-checks the
// per-message event attribution against the metrics registry's counters and
// demands exact equality, so the report provably accounts for everything
// the run recorded.
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
// segment of its lifetime.
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

// Role is which end of the transfer a segment executed on.
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

// Segment is one exactly-accounted slice of a message's lifetime: the time
// from the previous event to the event named here, classified by what that
// arrival represents.
type Segment struct {
	// From and To bound the segment in trace time units; To-From is its
	// length (possibly zero for coincident events).
	From, To uint64
	// Name is the event that closes the segment.
	Name string
	// Node is the closing event's node (-1 for network-level events).
	Node int
	// Proto is the closing event's protocol/subsystem.
	Proto string
	// Axis is the closing event's Feature-axis attribution.
	Axis obs.Axis
	// Cat classifies the segment.
	Cat Category
	// Role is the end of the transfer the segment executed on.
	Role Role
}

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
	// End-Start and exactly equals the sum of Segments.
	Start, End, Latency uint64
	// Events counts instant events, Spans completed span events, Packets
	// distinct packet identities.
	Events, Spans, Packets int
	// Retries counts retransmission-category closing events.
	Retries int
	// Segments is the exact telescoping decomposition of Latency.
	Segments []Segment
	// ByCategory, ByRole, and ByAxis aggregate segment time. ByAxis covers
	// CatWork segments only, indexed by obs.Axis.
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
	// ByCategory, ByRole, ByAxis aggregate segment time across messages.
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
// It makes two flat passes over the trace. The first gives each message a
// dense index in first-appearance order and records every event's message
// index and name-implied category (classified once per distinct name). The
// second fills one Message arena and one Segment arena, carving each
// message's Segments at its exact length. No per-message maps or growing
// slices are kept, so the allocation count does not grow with the trace.
func Analyze(events []obs.TraceEvent) *Analysis {
	a := &Analysis{TotalEvents: len(events)}
	if len(events) == 0 {
		return a
	}
	msgOf, class, nmsg, nodeLo, nodeHi := indexEvents(events)
	counts := make([]int32, nmsg)
	for _, k := range msgOf {
		if k >= 0 {
			counts[k]++
		} else {
			a.Unattributed++
		}
	}

	msgs := make([]Message, nmsg)
	segs := make([]Segment, len(events)-a.Unattributed)
	pkts := make([]pktSeen, nmsg)
	var extra []msgPkt // (message, packet) pairs beyond each message's first packet
	var water waterfall
	next := 0
	for i := range events {
		k := msgOf[i]
		if k < 0 {
			continue
		}
		e := &events[i]
		m := &msgs[k]
		t := eventTime(e)
		if m.ID == 0 {
			n := next + int(counts[k])
			*m = Message{
				ID:        e.MsgID,
				Synthetic: e.MsgID >= syntheticBase,
				Proto:     e.Proto,
				SrcNode:   e.Node,
				DstNode:   e.Node,
				Start:     t,
				End:       t,
				Segments:  segs[next:next:n],
			}
			next = n
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
			s := &pkts[k]
			switch {
			case s.first == 0:
				s.first, s.last = p, p
			case p != s.last:
				s.last = p
				if p != s.first {
					extra = append(extra, msgPkt{k, p})
				}
			}
		}

		cursor := m.End
		to := t
		if to < cursor {
			to = cursor // clamped: span starts can precede the cursor
		}
		cat := gapCategory(class[i], len(m.Segments) == 0 || e.Node == m.Segments[len(m.Segments)-1].Node)
		role := roleOf(e.Node, m.SrcNode)
		m.Segments = append(m.Segments, Segment{
			From: cursor, To: to,
			Name: e.Name, Node: e.Node, Proto: e.Proto, Axis: e.Axis,
			Cat: cat, Role: role,
		})
		units := to - cursor
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
	countPackets(msgs, pkts, extra)

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
	a.Critical = criticalPath(events, msgOf, nmsg, class, nodeLo, nodeHi)
	return a
}

// indexEvents is Analyze's first pass. It returns each event's dense message
// index (-1 for events with no message identity; indices follow first
// appearance) and name-implied category (ClassifyName), the number
// of messages, and the range of node values.
func indexEvents(events []obs.TraceEvent) (msgOf []int32, class []Category, nmsg int, nodeLo, nodeHi int) {
	idLo, idHi := ^uint64(0), uint64(0)
	nodeLo, nodeHi = events[0].Node, events[0].Node
	for i := range events {
		e := &events[i]
		if e.MsgID != 0 {
			idLo, idHi = min(idLo, e.MsgID), max(idHi, e.MsgID)
		}
		nodeLo, nodeHi = min(nodeLo, e.Node), max(nodeHi, e.Node)
	}
	ids := newDenseIndex(idLo, idHi, len(events))
	msgOf = make([]int32, len(events))
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
		msgOf[i] = -1
		if e.MsgID != 0 {
			msgOf[i] = ids.get(e.MsgID)
		}
	}
	return msgOf, class, int(ids.n), nodeLo, nodeHi
}

// denseIndex numbers keys 0, 1, 2, ... in first-seen order. Keys whose
// range is narrow (hub-allocated message ids, the flit simulator's synthetic
// ids, node numbers) index a flat table; a wider mix falls back to a map.
type denseIndex struct {
	lo   uint64
	slot []int32 // key-lo -> index+1; nil when the range is too wide
	m    map[uint64]int32
	n    int32
}

// newDenseIndex sizes an index for keys in [lo, hi], using a flat table
// when the range holds at most limit keys. Ranges are compared in wrapping
// arithmetic, so lo and hi may be any two's-complement values with lo <= hi.
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

// pktSeen is a message's first and latest non-zero packet id.
type pktSeen struct{ first, last uint64 }

// msgPkt records that message msg saw packet pkt, a packet id other than
// its first.
type msgPkt struct {
	msg int32
	pkt uint64
}

// countPackets sets each message's distinct packet count: one for its
// first packet id plus the distinct others recorded in extra. Most messages
// carry a single packet id and never reach extra.
func countPackets(msgs []Message, pkts []pktSeen, extra []msgPkt) {
	for k := range msgs {
		if pkts[k].first != 0 {
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
// work segments usually share a row, so the last row is checked before the
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

// criticalPath chains events across messages: an event's predecessor is the
// later of the previous event of its message and the previous event on its
// node, and the path is the backward chain from the run's last event. One
// forward pass records predecessor indices, reusing Analyze's message
// indices; the backtrack is O(path) and sizes Steps exactly.
func criticalPath(events []obs.TraceEvent, msgOf []int32, nmsg int, class []Category, nodeLo, nodeHi int) CriticalPath {
	var cp CriticalPath
	pred := make([]int32, len(events))
	lastOfMsg := make([]int32, nmsg) // message -> latest event index+1
	nodes := newDenseIndex(uint64(nodeLo), uint64(nodeHi), len(events))
	var lastOnNode []int32 // node index -> latest event index+1
	for i := range events {
		p := int32(-1)
		if k := msgOf[i]; k >= 0 {
			p = lastOfMsg[k] - 1
			lastOfMsg[k] = int32(i) + 1
		}
		j := nodes.get(uint64(events[i].Node))
		if int(j) == len(lastOnNode) {
			lastOnNode = append(lastOnNode, 0)
		}
		if q := lastOnNode[j] - 1; q > p {
			p = q
		}
		lastOnNode[j] = int32(i) + 1
		pred[i] = p
	}
	n := 0
	for i := int32(len(events) - 1); i >= 0; i = pred[i] {
		n++
	}
	// Fill the steps backward with each event's raw time and name-implied
	// category, then walk forward clamping times and classifying gaps.
	cp.Steps = make([]PathStep, n)
	for i := int32(len(events) - 1); i >= 0; i = pred[i] {
		n--
		e := &events[i]
		cp.Steps[n] = PathStep{Name: e.Name, Node: e.Node, MsgID: e.MsgID, Time: eventTime(e), Cat: class[i]}
	}
	cp.Steps[0].Cat = 0 // the first step closes no gap
	for k := 1; k < len(cp.Steps); k++ {
		s, prev := &cp.Steps[k], &cp.Steps[k-1]
		if s.Time < prev.Time {
			s.Time = prev.Time
		}
		s.Gap = s.Time - prev.Time
		s.Cat = gapCategory(s.Cat, s.Node == prev.Node)
		cp.ByCategory[s.Cat] += s.Gap
	}
	if n := len(cp.Steps); n > 1 {
		cp.Span = cp.Steps[n-1].Time - cp.Steps[0].Time
	}
	return cp
}
