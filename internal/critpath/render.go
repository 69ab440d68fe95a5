package critpath

import (
	"encoding/json"
	"fmt"
	"io"

	"msglayer/internal/obs"
)

// WriteText renders the analysis as a deterministic plain-text report: the
// latency distribution, the exact category decomposition, the per-feature
// cost waterfall, the slowest messages, and the cross-message critical
// path. Identical inputs render byte-identical reports.
func WriteText(w io.Writer, a *Analysis) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("critical-path report: %d messages, %d trace events (%d unattributed)\n",
		len(a.Messages), a.TotalEvents, a.Unattributed); err != nil {
		return err
	}
	if len(a.Messages) == 0 {
		return p("no attributable messages in trace\n")
	}
	if err := p("latency units: mean %.1f  p50 %d  p90 %d  p99 %d  max %d\n",
		a.MeanLatency(), a.Quantile(0.50), a.Quantile(0.90), a.Quantile(0.99),
		a.Latencies[len(a.Latencies)-1]); err != nil {
		return err
	}

	var total uint64
	for _, v := range a.ByCategory {
		total += v
	}
	if err := p("\nwhere the time goes (exact decomposition, %d units total):\n", total); err != nil {
		return err
	}
	for c := Category(0); c < numCategories; c++ {
		if err := p("  %-14s %10d  %s\n", c, a.ByCategory[c], pct(a.ByCategory[c], total)); err != nil {
			return err
		}
	}
	if err := p("by role:\n"); err != nil {
		return err
	}
	for r := Role(0); r < numRoles; r++ {
		if err := p("  %-14s %10d  %s\n", r, a.ByRole[r], pct(a.ByRole[r], total)); err != nil {
			return err
		}
	}
	if err := p("work by feature axis:\n"); err != nil {
		return err
	}
	for x := 0; x < numAxes; x++ {
		if a.ByAxis[x] == 0 {
			continue
		}
		if err := p("  %-14s %10d  %s\n", obs.Axis(x), a.ByAxis[x], pct(a.ByAxis[x], a.ByCategory[CatWork])); err != nil {
			return err
		}
	}

	if len(a.Waterfall) > 0 {
		if err := p("\ncost waterfall (work units by role, protocol, axis):\n"); err != nil {
			return err
		}
		for _, row := range a.Waterfall {
			if err := p("  %-8s %-10s %-12s %10d\n", row.Role, row.Proto, row.Axis, row.Units); err != nil {
				return err
			}
		}
	}

	if err := p("\nslowest messages:\n"); err != nil {
		return err
	}
	for _, m := range slowest(a.Messages, 5) {
		if err := p("  msg %s proto %-8s %d->%d  latency %d  (work %d, queueing %d, backpressure %d, retrans %d; %d pkts, %d retries)\n",
			msgLabel(m), m.Proto, m.SrcNode, m.DstNode, m.Latency,
			m.ByCategory[CatWork], m.ByCategory[CatQueueing],
			m.ByCategory[CatBackpressure], m.ByCategory[CatRetransmission],
			m.Packets, m.Retries); err != nil {
			return err
		}
	}

	if n := len(a.Critical.Steps); n > 0 {
		if err := p("\ncritical path (%d steps, %d units: work %d, queueing %d, backpressure %d, retrans %d):\n",
			n, a.Critical.Span,
			a.Critical.ByCategory[CatWork], a.Critical.ByCategory[CatQueueing],
			a.Critical.ByCategory[CatBackpressure], a.Critical.ByCategory[CatRetransmission]); err != nil {
			return err
		}
		steps := a.Critical.Steps
		const maxSteps = 24
		if len(steps) > maxSteps {
			if err := p("  ... %d earlier steps elided ...\n", len(steps)-maxSteps); err != nil {
				return err
			}
			steps = steps[len(steps)-maxSteps:]
		}
		for _, s := range steps {
			gap := ""
			if s.Gap > 0 {
				gap = fmt.Sprintf("  +%d %s", s.Gap, s.Cat)
			}
			if err := p("  t=%-8d node %-3d msg %-6d %-24s%s\n", s.Time, s.Node, s.MsgID, s.Name, gap); err != nil {
				return err
			}
		}
	}
	return nil
}

// slowest returns the n messages with the longest latency, longest first
// and ties by ascending ID. It is a bounded insertion selection, O(len(msgs))
// for a fixed n, and matches a stable sort of the whole list cut to n.
func slowest(msgs []*Message, n int) []*Message {
	slower := func(x, y *Message) bool {
		return x.Latency > y.Latency || x.Latency == y.Latency && x.ID < y.ID
	}
	top := make([]*Message, 0, n)
	for _, m := range msgs {
		if len(top) == n {
			if !slower(m, top[n-1]) {
				continue
			}
			top = top[:n-1]
		}
		i := len(top)
		top = append(top, m)
		for ; i > 0 && slower(m, top[i-1]); i-- {
			top[i] = top[i-1]
		}
		top[i] = m
	}
	return top
}

// pct renders a part/whole share, guarding the empty case.
func pct(part, whole uint64) string {
	if whole == 0 {
		return "-"
	}
	return fmt.Sprintf("%5.1f%%", 100*float64(part)/float64(whole))
}

// msgLabel renders a message id, marking synthetic flit-level identities.
func msgLabel(m *Message) string {
	if m.Synthetic {
		return fmt.Sprintf("flit#%d", m.ID-syntheticBase)
	}
	return fmt.Sprintf("%d", m.ID)
}

// jsonReport is the JSON shape of an analysis.
type jsonReport struct {
	Messages     int               `json:"messages"`
	Unattributed int               `json:"unattributed_events"`
	TotalEvents  int               `json:"total_events"`
	Latency      jsonLatency       `json:"latency"`
	ByCategory   map[string]uint64 `json:"by_category"`
	ByRole       map[string]uint64 `json:"by_role"`
	ByAxis       map[string]uint64 `json:"work_by_axis"`
	Waterfall    []jsonWaterfall   `json:"waterfall"`
	Critical     jsonCritical      `json:"critical_path"`
	PerMessage   []jsonMessage     `json:"per_message"`
}

type jsonLatency struct {
	Mean float64 `json:"mean"`
	P50  uint64  `json:"p50"`
	P90  uint64  `json:"p90"`
	P99  uint64  `json:"p99"`
	Max  uint64  `json:"max"`
}

type jsonWaterfall struct {
	Role  string `json:"role"`
	Proto string `json:"proto"`
	Axis  string `json:"axis"`
	Units uint64 `json:"units"`
}

type jsonCritical struct {
	Steps      int               `json:"steps"`
	Span       uint64            `json:"span"`
	ByCategory map[string]uint64 `json:"by_category"`
}

type jsonMessage struct {
	ID         uint64            `json:"id"`
	Synthetic  bool              `json:"synthetic,omitempty"`
	Proto      string            `json:"proto"`
	Src        int               `json:"src"`
	Dst        int               `json:"dst"`
	Latency    uint64            `json:"latency"`
	Packets    int               `json:"packets"`
	Retries    int               `json:"retries,omitempty"`
	ByCategory map[string]uint64 `json:"by_category"`
}

// JSON renders the analysis as a deterministic JSON document.
func JSON(a *Analysis) ([]byte, error) {
	rep := jsonReport{
		Messages:     len(a.Messages),
		Unattributed: a.Unattributed,
		TotalEvents:  a.TotalEvents,
		ByCategory:   catMap(a.ByCategory),
		ByRole:       roleMap(a.ByRole),
		ByAxis:       axisMap(a.ByAxis),
		Critical: jsonCritical{
			Steps:      len(a.Critical.Steps),
			Span:       a.Critical.Span,
			ByCategory: catMap(a.Critical.ByCategory),
		},
	}
	if len(a.Latencies) > 0 {
		rep.Latency = jsonLatency{
			Mean: a.MeanLatency(),
			P50:  a.Quantile(0.50),
			P90:  a.Quantile(0.90),
			P99:  a.Quantile(0.99),
			Max:  a.Latencies[len(a.Latencies)-1],
		}
	}
	for _, row := range a.Waterfall {
		rep.Waterfall = append(rep.Waterfall, jsonWaterfall{
			Role: row.Role.String(), Proto: row.Proto,
			Axis: row.Axis.String(), Units: row.Units,
		})
	}
	for _, m := range a.Messages {
		rep.PerMessage = append(rep.PerMessage, jsonMessage{
			ID: m.ID, Synthetic: m.Synthetic, Proto: m.Proto,
			Src: m.SrcNode, Dst: m.DstNode, Latency: m.Latency,
			Packets: m.Packets, Retries: m.Retries,
			ByCategory: catMap(m.ByCategory),
		})
	}
	return json.MarshalIndent(rep, "", "  ")
}

func catMap(v [numCategories]uint64) map[string]uint64 {
	out := make(map[string]uint64, numCategories)
	for c := Category(0); c < numCategories; c++ {
		out[c.String()] = v[c]
	}
	return out
}

func roleMap(v [numRoles]uint64) map[string]uint64 {
	out := make(map[string]uint64, numRoles)
	for r := Role(0); r < numRoles; r++ {
		out[r.String()] = v[r]
	}
	return out
}

func axisMap(v [numAxes]uint64) map[string]uint64 {
	out := make(map[string]uint64, numAxes)
	for x := 0; x < numAxes; x++ {
		out[obs.Axis(x).String()] = v[x]
	}
	return out
}

// chromeFlowEvent mirrors the Chrome trace-event JSON entry, extended with
// the flow-event fields (id, bp).
type chromeFlowEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	Dur   *uint64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    *uint64        `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeFlow renders the trace as Chrome trace-event JSON with flow
// arrows: alongside the usual instants and spans, each message's hops
// between threads (nodes and the network) are linked with flow events keyed
// by MsgID, so perfetto draws the causal chain of every message as arrows
// across the timeline.
func WriteChromeFlow(w io.Writer, events []obs.TraceEvent) error {
	maxNode := 0
	for _, e := range events {
		if e.Node > maxNode {
			maxNode = e.Node
		}
	}
	netTID := maxNode + 1
	tidOf := func(node int) int {
		if node < 0 {
			return netTID
		}
		return node
	}
	out := []chromeFlowEvent{{
		Name: "process_name", Phase: "M", PID: 1,
		Args: map[string]any{"name": "msglayer sim"},
	}}
	seenTID := make(map[int]bool)
	nameTID := func(node int) {
		tid := tidOf(node)
		if seenTID[tid] {
			return
		}
		seenTID[tid] = true
		label := fmt.Sprintf("node %d", node)
		if node < 0 {
			label = "machine/net"
		}
		out = append(out, chromeFlowEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": label},
		})
	}

	// Count each message's hops so the last flow event can close the arrow
	// chain ("f" instead of "t").
	hops := make(map[uint64]int)
	for _, e := range events {
		if e.MsgID != 0 {
			hops[e.MsgID]++
		}
	}
	emitted := make(map[uint64]int)
	for _, e := range events {
		nameTID(e.Node)
		args := map[string]any{"round": e.Round, "seq": e.Seq, "proto": e.Proto}
		if e.MsgID != 0 {
			args["msg"] = e.MsgID
		}
		if e.PktID != 0 {
			args["pkt"] = e.PktID
		}
		ce := chromeFlowEvent{
			Name: e.Name, Cat: e.Axis.String(), Phase: string(rune(e.Phase)),
			TS: e.TS, PID: 1, TID: tidOf(e.Node), Args: args,
		}
		if e.Phase == obs.PhaseInstant {
			ce.Scope = "t"
		}
		if e.Phase == obs.PhaseComplete {
			dur := e.Dur
			ce.Dur = &dur
		}
		out = append(out, ce)

		if e.MsgID == 0 || hops[e.MsgID] < 2 {
			continue
		}
		emitted[e.MsgID]++
		ph := "t"
		switch emitted[e.MsgID] {
		case 1:
			ph = "s"
		case hops[e.MsgID]:
			ph = "f"
		}
		id := e.MsgID
		flow := chromeFlowEvent{
			Name: "msg", Cat: "flow", Phase: ph,
			TS: eventTime(&e), PID: 1, TID: tidOf(e.Node), ID: &id,
		}
		if ph == "f" {
			flow.BP = "e" // bind the arrow head to the enclosing slice
		}
		out = append(out, flow)
	}
	doc := struct {
		TraceEvents     []chromeFlowEvent `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
	}{TraceEvents: out, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
