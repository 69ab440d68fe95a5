package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// metricHelp documents the known metric names for the Prometheus
// exposition's HELP lines.
var metricHelp = map[string]string{
	"packets_sent_total":      "packets pushed through the CMAM send path",
	"packets_received_total":  "packets dispatched by the CMAM poll path",
	"segment_allocs_total":    "communication segments allocated",
	"segment_frees_total":     "communication segments freed",
	"segments_open":           "communication segments currently open",
	"send_queue_depth":        "software send-queue depth (last sample)",
	"send_queue_depth_hist":   "software send-queue depth distribution",
	"recv_queue_depth":        "packets buffered in the network toward the node (last sample)",
	"recv_queue_depth_hist":   "network receive-queue depth distribution",
	"protocol_events_total":   "named protocol events by node, protocol, and event",
	"step_latency_rounds":     "rounds between consecutive protocol events of one protocol on one node",
	"transfer_latency_rounds": "rounds from transfer start to completion",
	"net_injected_total":      "packets accepted by the network substrate",
	"net_delivered_total":     "packets popped by receivers",
	"net_dropped_total":       "packets lost to injected faults",
	"net_corrupt_total":       "packets delivered with a failed CRC",
	"net_backpressure_total":  "injections refused for lack of buffering",
	"net_rejected_total":      "header packets refused by the destination",
	"net_hw_retries_total":    "transparent hardware retries (CR)",
	"ctrlnet_combines_total":  "control-network combine rounds completed",
	"ctrlnet_scans_total":     "control-network scan rounds completed",
	"ctrlnet_busy_total":      "control-network contributions refused busy",
	"ctrlnet_cycles_total":    "control-network hardware cycles ticked",
	"run_rounds_total":        "scheduler rounds executed by observed runs",
	"run_steps_total":         "stepper invocations executed by observed runs",
	"run_stalls_total":        "observed runs that exhausted their round budget",
	"trace_undescribed_total": "protocol events neither described nor deliberately skipped by the figure traces",
	"flitnet_idle_skipped":    "cycles the event-driven flit engine fast-forwarded instead of stepping",

	"flitnet_link_flits_total":     "flits moved across a router output link (event label = output port)",
	"flitnet_inflight_worms":       "worms currently in the flit network",
	"flitnet_inject_backlog_worms": "worms accepted by Inject but not yet head-injected",
	"flitnet_recvq_packets":        "delivered packets not yet drained by TryRecv",
	"flitnet_buffered_flits":       "flits resident in router input buffers (event label = virtual channel, when split)",
}

// MetricPrefix namespaces every exported series.
const MetricPrefix = "msglayer_"

// WritePrometheus renders the registry in the Prometheus text exposition
// format, deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	write := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	typed := make(map[string]bool)
	header := func(name, kind string) error {
		if typed[name] {
			return nil
		}
		typed[name] = true
		help := metricHelp[name]
		if help == "" {
			for _, q := range r.exportQuantiles() {
				if base, ok := strings.CutSuffix(name, "_"+q.Suffix); ok && metricHelp[base] != "" {
					help = q.Suffix + " quantile of " + metricHelp[base]
				}
			}
		}
		if help != "" {
			if err := write("# HELP %s%s %s\n", MetricPrefix, name, help); err != nil {
				return err
			}
		}
		return write("# TYPE %s%s %s\n", MetricPrefix, name, kind)
	}

	for _, k := range sortedKeys(r.counters) {
		if err := header(k.Name, "counter"); err != nil {
			return err
		}
		if err := write("%s%s %d\n", MetricPrefix, k, r.counters[k].Value()); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(r.levels) {
		if err := header(k.Name, "gauge"); err != nil {
			return err
		}
		if err := write("%s%s %d\n", MetricPrefix, k, r.levels[k].Value()); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(r.hists) {
		if err := header(k.Name, "histogram"); err != nil {
			return err
		}
		h := r.hists[k]
		cum := h.Cumulative()
		for i, bound := range h.Bounds() {
			if err := write("%s%s_bucket{%s} %d\n", MetricPrefix, k.Name,
				appendLabel(k.labelString(), "le", strconv.FormatUint(bound, 10)), cum[i]); err != nil {
				return err
			}
		}
		if err := write("%s%s_bucket{%s} %d\n", MetricPrefix, k.Name,
			appendLabel(k.labelString(), "le", "+Inf"), cum[len(cum)-1]); err != nil {
			return err
		}
		if err := write("%s%s_sum%s %d\n", MetricPrefix, k.Name, braced(k.labelString()), h.Sum()); err != nil {
			return err
		}
		if err := write("%s%s_count%s %d\n", MetricPrefix, k.Name, braced(k.labelString()), h.Count()); err != nil {
			return err
		}
	}
	// Bucket-derived quantiles as their own gauge families, grouped per
	// family so the exposition stays well-formed.
	for _, q := range r.exportQuantiles() {
		for _, k := range sortedKeys(r.hists) {
			name := k.Name + "_" + q.Suffix
			if err := header(name, "gauge"); err != nil {
				return err
			}
			if err := write("%s%s%s %d\n", MetricPrefix, name, braced(k.labelString()), r.hists[k].Quantile(q.Q)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ExportQuantile names one bucket-derived quantile the exporters emit
// alongside the raw bucket dumps; Suffix becomes the series-name suffix
// ("_p99") and the JSON quantile map key.
type ExportQuantile struct {
	Suffix string
	Q      float64
}

// defaultQuantiles is the historical export list; registries emit it until
// SetExportQuantiles overrides it, so existing goldens stay byte-stable.
var defaultQuantiles = []ExportQuantile{
	{"p50", 0.50},
	{"p90", 0.90},
	{"p99", 0.99},
}

// DefaultQuantiles returns the default export list (p50, p90, p99).
func DefaultQuantiles() []ExportQuantile {
	return append([]ExportQuantile(nil), defaultQuantiles...)
}

// ExtendedQuantiles returns the default list plus the p99.9 tail quantile.
func ExtendedQuantiles() []ExportQuantile {
	return append(DefaultQuantiles(), ExportQuantile{"p999", 0.999})
}

// SetExportQuantiles overrides the quantiles both exporters emit for this
// registry. nil restores the default list.
func (r *Registry) SetExportQuantiles(qs []ExportQuantile) { r.quantiles = qs }

// exportQuantiles resolves the effective export list.
func (r *Registry) exportQuantiles() []ExportQuantile {
	if r.quantiles != nil {
		return r.quantiles
	}
	return defaultQuantiles
}

// appendLabel adds one label pair to a rendered label list.
func appendLabel(labels, name, value string) string {
	pair := fmt.Sprintf("%s=%q", name, value)
	if labels == "" {
		return pair
	}
	return labels + "," + pair
}

// braced wraps a non-empty label list in braces.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// JSONMetric is one exported metric series.
type JSONMetric struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Node  *int   `json:"node,omitempty"`
	Proto string `json:"proto,omitempty"`
	Event string `json:"event,omitempty"`
	Value int64  `json:"value,omitempty"`
	// Histogram detail (kind == "histogram" only).
	Bounds []uint64 `json:"bounds,omitempty"`
	Counts []uint64 `json:"counts,omitempty"`
	Sum    uint64   `json:"sum,omitempty"`
	Count  uint64   `json:"count,omitempty"`
	// Quantiles holds the bucket-derived p50/p90/p99 estimates
	// (kind == "histogram" only).
	Quantiles map[string]uint64 `json:"quantiles,omitempty"`
}

// jsonKey fills the shared key fields.
func jsonKey(k Key, kind string) JSONMetric {
	m := JSONMetric{Name: k.Name, Kind: kind, Proto: k.Proto, Event: k.Event}
	if k.Node >= 0 {
		node := k.Node
		m.Node = &node
	}
	return m
}

// MetricsJSON renders the registry as a deterministic JSON document.
func (r *Registry) MetricsJSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		Metrics []JSONMetric `json:"metrics"`
	}{r.JSONMetrics()}, "", "  ")
}

// JSONMetrics returns the registry's series in their exported form, in the
// deterministic export order — the in-process equivalent of MetricsJSON,
// for consumers (the diff engine) that want the series without a
// marshal/unmarshal round trip.
func (r *Registry) JSONMetrics() []JSONMetric {
	var out []JSONMetric
	for _, k := range sortedKeys(r.counters) {
		m := jsonKey(k, "counter")
		m.Value = int64(r.counters[k].Value())
		out = append(out, m)
	}
	for _, k := range sortedKeys(r.levels) {
		m := jsonKey(k, "gauge")
		m.Value = r.levels[k].Value()
		out = append(out, m)
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k]
		m := jsonKey(k, "histogram")
		m.Bounds = h.Bounds()
		m.Counts = h.Cumulative()
		m.Sum = h.Sum()
		m.Count = h.Count()
		if h.Count() > 0 {
			qs := r.exportQuantiles()
			m.Quantiles = make(map[string]uint64, len(qs))
			for _, q := range qs {
				m.Quantiles[q.Suffix] = h.Quantile(q.Q)
			}
		}
		out = append(out, m)
	}
	return out
}

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU;
// loadable in chrome://tracing and https://ui.perfetto.dev).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	Dur   *uint64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromePID is the synthetic process id the simulator exports under.
const chromePID = 1

// netTID is the synthetic thread machine- and network-wide events (Node
// == -1) are filed under, placed after the largest real node id seen.
func netTID(maxNode int) int { return maxNode + 1 }

// WriteChromeTrace renders the recorded events as Chrome trace-event JSON
// (the {"traceEvents": [...]} object form). Nodes appear as threads of one
// "msglayer sim" process; machine-wide events land on a trailing "net"
// thread; every event's category carries its Feature-axis attribution so
// the timeline can be filtered by the paper's axes.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	maxNode := 0
	for i := 0; i < t.n; i++ {
		maxNode = max(maxNode, t.At(i).Node)
	}
	out := []chromeEvent{{
		Name: "process_name", Phase: "M", PID: chromePID,
		Args: map[string]any{"name": "msglayer sim"},
	}}
	seenTID := make(map[int]bool)
	tidOf := func(node int) int {
		if node < 0 {
			return netTID(maxNode)
		}
		return node
	}
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
		out = append(out, chromeEvent{
			Name: "thread_name", Phase: "M", PID: chromePID, TID: tid,
			Args: map[string]any{"name": label},
		})
	}
	for i := 0; i < t.n; i++ {
		e := t.At(i)
		nameTID(e.Node)
		args := map[string]any{"round": e.Round, "seq": uint64(i) + 1, "proto": t.syms[e.Proto]}
		if e.MsgID != 0 {
			args["msg"] = e.MsgID
		}
		if e.PktID != 0 {
			args["pkt"] = e.PktID
		}
		if e.SpanID != 0 {
			args["span"] = e.SpanID
		}
		if e.Parent != 0 {
			args["parent"] = e.Parent
		}
		ce := chromeEvent{
			Name:  t.syms[e.Name],
			Cat:   e.Axis.String(),
			Phase: string(rune(e.Phase)),
			TS:    e.TS,
			PID:   chromePID,
			TID:   tidOf(e.Node),
			Args:  args,
		}
		if e.Phase == PhaseInstant {
			ce.Scope = "t" // thread-scoped instant marker
		}
		if e.Phase == PhaseComplete {
			dur := e.Dur
			ce.Dur = &dur
		}
		out = append(out, ce)
	}
	doc := struct {
		TraceEvents     []chromeEvent  `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData,omitempty"`
	}{
		TraceEvents:     out,
		DisplayTimeUnit: "ms",
	}
	if d := t.Dropped(); d > 0 {
		doc.OtherData = map[string]any{"droppedEvents": d}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
