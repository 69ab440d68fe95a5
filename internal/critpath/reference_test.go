package critpath_test

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"msglayer/internal/critpath"
	"msglayer/internal/obs"
)

// referenceAnalyze is the naive analyzer Analyze is held to: a map entry
// per message holding its Message, its previous event's node and a set of
// its packet ids, and a critical path built from a forward pass that
// records every event's predecessor index. It shares no code with Analyze
// beyond ClassifyName.
func referenceAnalyze(events []obs.TraceEvent) *critpath.Analysis {
	a := &critpath.Analysis{TotalEvents: len(events)}
	type msgRef struct {
		m    *critpath.Message
		node int
		pkts map[uint64]bool
	}
	byID := make(map[uint64]*msgRef)
	water := make(map[critpath.WaterfallRow]uint64)
	for i := range events {
		e := &events[i]
		if e.MsgID == 0 {
			a.Unattributed++
			continue
		}
		t := refTime(e)
		r := byID[e.MsgID]
		if r == nil {
			r = &msgRef{
				m: &critpath.Message{
					ID: e.MsgID, Synthetic: e.MsgID >= 1<<32, Proto: e.Proto,
					SrcNode: e.Node, DstNode: e.Node, Start: t, End: t,
				},
				node: e.Node,
				pkts: make(map[uint64]bool),
			}
			byID[e.MsgID] = r
			a.Messages = append(a.Messages, r.m)
		}
		m := r.m
		if m.DstNode == m.SrcNode && e.Node != m.SrcNode && e.Node >= 0 {
			m.DstNode = e.Node
		}
		if m.Proto == "cmam" && e.Node >= 0 && e.Proto != "cmam" && e.Proto != "" &&
			!strings.HasPrefix(e.Name, "net.") {
			m.Proto = e.Proto
		}
		if e.Phase == obs.PhaseComplete {
			m.Spans++
		} else {
			m.Events++
		}
		if e.PktID != 0 {
			r.pkts[e.PktID] = true
		}
		m.Packets = len(r.pkts)

		to := max(t, m.End)
		units := to - m.End
		cat := refGap(e.Name, e.Node == r.node)
		role := critpath.RoleDest
		switch {
		case e.Node < 0:
			role = critpath.RoleNetwork
		case e.Node == m.SrcNode:
			role = critpath.RoleSource
		}
		r.node = e.Node
		m.ByCategory[cat] += units
		m.ByRole[role] += units
		if cat == critpath.CatWork {
			m.ByAxis[e.Axis] += units
			if units > 0 {
				water[critpath.WaterfallRow{Role: role, Proto: e.Proto, Axis: e.Axis}] += units
			}
		}
		if cat == critpath.CatRetransmission && e.Phase != obs.PhaseComplete {
			m.Retries++
		}
		m.End = to
		m.Latency = m.End - m.Start
	}

	for _, m := range a.Messages {
		a.Latencies = append(a.Latencies, m.Latency)
		for c := range m.ByCategory {
			a.ByCategory[c] += m.ByCategory[c]
		}
		for r := range m.ByRole {
			a.ByRole[r] += m.ByRole[r]
		}
		for x := range m.ByAxis {
			a.ByAxis[x] += m.ByAxis[x]
		}
	}
	slices.SortFunc(a.Messages, func(x, y *critpath.Message) int {
		return cmp.Or(cmp.Compare(x.Start, y.Start), cmp.Compare(x.ID, y.ID))
	})
	slices.Sort(a.Latencies)
	for row, units := range water {
		row.Units = units
		a.Waterfall = append(a.Waterfall, row)
	}
	slices.SortFunc(a.Waterfall, func(x, y critpath.WaterfallRow) int {
		return cmp.Or(cmp.Compare(x.Role, y.Role), strings.Compare(x.Proto, y.Proto), cmp.Compare(x.Axis, y.Axis))
	})
	a.Critical = referenceCriticalPath(events)
	return a
}

// referenceCriticalPath records each event's predecessor (the later of its
// message's and its node's previous event) in a forward pass, then follows
// the chain back from the last event.
func referenceCriticalPath(events []obs.TraceEvent) critpath.CriticalPath {
	var cp critpath.CriticalPath
	pred := make([]int, len(events))
	lastOfMsg := make(map[uint64]int)
	lastOnNode := make(map[int]int)
	for i, e := range events {
		p := -1
		if e.MsgID != 0 {
			if j, ok := lastOfMsg[e.MsgID]; ok {
				p = j
			}
			lastOfMsg[e.MsgID] = i
		}
		if j, ok := lastOnNode[e.Node]; ok && j > p {
			p = j
		}
		lastOnNode[e.Node] = i
		pred[i] = p
	}
	var chain []int
	for i := len(events) - 1; i >= 0; i = pred[i] {
		chain = append(chain, i)
	}
	slices.Reverse(chain)
	for k, i := range chain {
		e := &events[i]
		s := critpath.PathStep{Name: e.Name, Node: e.Node, MsgID: e.MsgID, Time: refTime(e)}
		if k > 0 {
			prev := cp.Steps[k-1]
			s.Time = max(s.Time, prev.Time)
			s.Gap = s.Time - prev.Time
			s.Cat = refGap(e.Name, e.Node == prev.Node)
			cp.ByCategory[s.Cat] += s.Gap
		}
		cp.Steps = append(cp.Steps, s)
	}
	if n := len(cp.Steps); n > 1 {
		cp.Span = cp.Steps[n-1].Time - cp.Steps[0].Time
	}
	return cp
}

// refTime is when an event happens on the message timeline: an instant's
// timestamp, a span's close.
func refTime(e *obs.TraceEvent) uint64 {
	if e.Phase == obs.PhaseComplete {
		return e.TS + e.Dur
	}
	return e.TS
}

// refGap classifies the gap an event closes: its name's category, except
// that work landing on a node other than the previous event's was transit.
func refGap(name string, sameNode bool) critpath.Category {
	c := critpath.ClassifyName(name)
	if c == critpath.CatWork && !sameNode {
		return critpath.CatQueueing
	}
	return c
}

// diffAnalysis returns the first field in which got differs from want, or
// "" when they are equal field for field.
func diffAnalysis(got, want *critpath.Analysis) string {
	switch {
	case got.TotalEvents != want.TotalEvents || got.Unattributed != want.Unattributed:
		return fmt.Sprintf("events %d (%d unattributed), want %d (%d)",
			got.TotalEvents, got.Unattributed, want.TotalEvents, want.Unattributed)
	case len(got.Messages) != len(want.Messages):
		return fmt.Sprintf("%d messages, want %d", len(got.Messages), len(want.Messages))
	}
	for i := range got.Messages {
		if *got.Messages[i] != *want.Messages[i] {
			return fmt.Sprintf("message %d:\n got %+v\nwant %+v", i, *got.Messages[i], *want.Messages[i])
		}
	}
	switch {
	case got.ByCategory != want.ByCategory || got.ByRole != want.ByRole || got.ByAxis != want.ByAxis:
		return fmt.Sprintf("aggregates %v %v %v, want %v %v %v",
			got.ByCategory, got.ByRole, got.ByAxis, want.ByCategory, want.ByRole, want.ByAxis)
	case !slices.Equal(got.Waterfall, want.Waterfall):
		return fmt.Sprintf("waterfall %+v, want %+v", got.Waterfall, want.Waterfall)
	case !slices.Equal(got.Latencies, want.Latencies):
		return "latencies differ"
	case got.Critical.Span != want.Critical.Span || got.Critical.ByCategory != want.Critical.ByCategory:
		return fmt.Sprintf("critical path span %d %v, want %d %v",
			got.Critical.Span, got.Critical.ByCategory, want.Critical.Span, want.Critical.ByCategory)
	case len(got.Critical.Steps) != len(want.Critical.Steps):
		return fmt.Sprintf("critical path %d steps, want %d", len(got.Critical.Steps), len(want.Critical.Steps))
	}
	for i, s := range got.Critical.Steps {
		if s != want.Critical.Steps[i] {
			return fmt.Sprintf("critical step %d: got %+v, want %+v", i, s, want.Critical.Steps[i])
		}
	}
	return ""
}

// checkReference fails the test unless Analyze equals the reference
// analyzer on events, field for field.
func checkReference(t *testing.T, events []obs.TraceEvent, a *critpath.Analysis) {
	t.Helper()
	if d := diffAnalysis(a, referenceAnalyze(events)); d != "" {
		t.Fatalf("Analyze differs from the reference analyzer: %s", d)
	}
}
