package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestObsCounterAndLevel(t *testing.T) {
	r := NewRegistry()
	k := Key{Name: "packets_sent_total", Node: 0, Proto: "cmam"}
	c := r.Counter(k)
	c.Inc()
	c.Add(2)
	if got := r.CounterValue(k); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if r.Counter(k) != c {
		t.Fatal("counter pointer not stable across lookups")
	}
	l := r.Level(Key{Name: "segments_open", Node: 0})
	l.Add(2)
	l.Add(-1)
	if l.Value() != 1 {
		t.Fatalf("level = %d, want 1", l.Value())
	}
	l.Set(7)
	if l.Value() != 7 {
		t.Fatalf("level = %d, want 7", l.Value())
	}
}

func TestObsHistogramBuckets(t *testing.T) {
	h := NewHistogram([]uint64{1, 4, 16})
	for _, v := range []uint64{0, 1, 2, 5, 100} {
		h.Observe(v)
	}
	// 0,1 <= 1; 2 <= 4; 5 <= 16; 100 -> +Inf.
	want := []uint64{2, 3, 4, 5}
	got := h.Cumulative()
	if len(got) != len(want) {
		t.Fatalf("cumulative has %d buckets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 5 || h.Sum() != 108 {
		t.Fatalf("count/sum = %d/%d, want 5/108", h.Count(), h.Sum())
	}
}

func TestObsKeyString(t *testing.T) {
	k := Key{Name: "protocol_events_total", Node: 1, Proto: "finite", Event: "finite.start"}
	want := `protocol_events_total{node="1",proto="finite",event="finite.start"}`
	if k.String() != want {
		t.Fatalf("key = %s, want %s", k, want)
	}
	bare := Key{Name: "run_rounds_total", Node: -1}
	if bare.String() != "run_rounds_total" {
		t.Fatalf("bare key = %s", bare)
	}
}

// TestObsKeyStringMatchesFmt holds the fmt-free renderer to the format it
// replaced: %q of each label value, node labels quoted as decimal strings.
func TestObsKeyStringMatchesFmt(t *testing.T) {
	ref := func(k Key) string {
		var labels []string
		if k.Node >= 0 {
			labels = append(labels, fmt.Sprintf("node=%q", fmt.Sprint(k.Node)))
		}
		if k.Proto != "" {
			labels = append(labels, fmt.Sprintf("proto=%q", k.Proto))
		}
		if k.Event != "" {
			labels = append(labels, fmt.Sprintf("event=%q", k.Event))
		}
		if len(labels) == 0 {
			return k.Name
		}
		return k.Name + "{" + strings.Join(labels, ",") + "}"
	}
	for _, k := range []Key{
		{Name: "bare", Node: -1},
		{Name: "n", Node: 0},
		{Name: "n", Node: 1234567},
		{Name: "p", Node: -1, Proto: "crstream"},
		{Name: "e", Node: -1, Event: "finite.start"},
		{Name: "pe", Node: -1, Proto: "net", Event: "load_50"},
		{Name: "all", Node: 7, Proto: "finite", Event: "finite.start"},
		{Name: "odd", Node: 2, Proto: "q\"uote\\", Event: "tab\tnl\n<&>\u2028\xff"},
		{Name: "", Node: -1, Proto: "\x00"},
	} {
		if got, want := k.String(), ref(k); got != want {
			t.Errorf("Key%+v.String() = %s, want %s", k, got, want)
		}
		want := ""
		if r := ref(k); r != k.Name {
			want = r[len(k.Name)+1 : len(r)-1]
		}
		if got := k.labelString(); got != want {
			t.Errorf("Key%+v.labelString() = %s, want %s", k, got, want)
		}
	}
}

func TestObsTracerMonotonicTimestamps(t *testing.T) {
	tr := NewTracer(0)
	tr.Record(TraceEvent{Round: 0, Node: 0, Name: "a"})
	tr.Record(TraceEvent{Round: 0, Node: 0, Name: "b"})
	tr.Record(TraceEvent{Round: 3, Node: 1, Name: "c"})
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("recorded %d events, want 3", len(ev))
	}
	if ev[0].TS != 0 || ev[1].TS != 1 || ev[2].TS != 3*RoundUnits {
		t.Fatalf("timestamps %d,%d,%d not monotonic round-scaled", ev[0].TS, ev[1].TS, ev[2].TS)
	}
	for i, e := range ev {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Phase != PhaseInstant {
			t.Fatalf("event %d phase %c, want instant", i, e.Phase)
		}
	}
}

// TestObsTracerSpanInstantInterleaving holds Record's clock invariant when
// PhaseComplete spans (which keep the caller's TS/Dur) interleave with
// instants: a span whose end passes the clock advances it, a span that ends
// in the past does not, and the next instant always lands strictly after
// everything recorded so far.
func TestObsTracerSpanInstantInterleaving(t *testing.T) {
	tr := NewTracer(0)
	tr.Record(TraceEvent{Round: 1, Name: "a"}) // instant at 100
	if tr.Now() != 1*RoundUnits {
		t.Fatalf("clock %d after first instant, want %d", tr.Now(), RoundUnits)
	}

	// A span ending beyond the clock advances it (the e.TS+e.Dur > lastTS
	// branch taken).
	tr.Record(TraceEvent{Phase: PhaseComplete, TS: 100, Dur: 250, Name: "span.long"})
	if tr.Now() != 350 {
		t.Fatalf("clock %d after long span, want 350", tr.Now())
	}

	// A span entirely in the past leaves the clock alone (branch not taken).
	tr.Record(TraceEvent{Phase: PhaseComplete, TS: 120, Dur: 10, Name: "span.past"})
	if tr.Now() != 350 {
		t.Fatalf("clock %d after past span, want 350 unchanged", tr.Now())
	}

	// The next instant's natural position (round 2 -> 200) is already
	// covered by the long span, so it must be bumped past the clock.
	tr.Record(TraceEvent{Round: 2, Name: "b"})
	// And a later round beyond the clock lands at its natural position.
	tr.Record(TraceEvent{Round: 4, Name: "c"})

	ev := tr.Events()
	if got := ev[3].TS; got != 351 {
		t.Fatalf("bumped instant at %d, want 351", got)
	}
	if got := ev[4].TS; got != 4*RoundUnits {
		t.Fatalf("later-round instant at %d, want %d", got, 4*RoundUnits)
	}
	// Spans keep the caller's TS/Dur verbatim.
	if ev[1].TS != 100 || ev[1].Dur != 250 || ev[2].TS != 120 || ev[2].Dur != 10 {
		t.Fatalf("span TS/Dur rewritten: %+v %+v", ev[1], ev[2])
	}
	// Instants are strictly monotonic across the whole stream.
	last := uint64(0)
	for i, e := range ev {
		if e.Phase != PhaseInstant {
			continue
		}
		if i > 0 && e.TS <= last {
			t.Fatalf("instant %d at TS %d not after %d", i, e.TS, last)
		}
		last = e.TS
	}
}

func TestObsTracerLimit(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 5; i++ {
		tr.Record(TraceEvent{Round: uint64(i), Name: "x"})
	}
	if tr.Len() != 2 || tr.Dropped() != 3 {
		t.Fatalf("len/dropped = %d/%d, want 2/3", tr.Len(), tr.Dropped())
	}
}

func TestObsNodeScopeSpans(t *testing.T) {
	h := NewHub()
	s := h.NodeScope(0)
	s.Event("finite.start")
	h.Tick()
	h.Tick()
	s.Event("finite.ack.recv")
	var span *TraceEvent
	for i := range h.Trace.Events() {
		if h.Trace.Events()[i].Phase == PhaseComplete {
			span = &h.Trace.Events()[i]
		}
	}
	if span == nil {
		t.Fatal("no PhaseComplete span recorded")
	}
	if span.Name != "finite.xfer.src" {
		t.Fatalf("span name %q", span.Name)
	}
	if span.Dur == 0 {
		t.Fatal("span has zero duration")
	}
	lat := h.Metrics.hists[Key{Name: "transfer_latency_rounds", Node: 0, Proto: "finite"}]
	if lat == nil || lat.Count() != 1 || lat.Sum() != 2 {
		t.Fatalf("transfer latency histogram = %+v, want one 2-round sample", lat)
	}
	// A second end without a begin is ignored.
	s.Event("finite.ack.recv")
	if lat.Count() != 1 {
		t.Fatal("unmatched span end produced a latency sample")
	}
}

func TestObsNilAndDisabledScopes(t *testing.T) {
	var s *NodeScope
	s.Event("finite.start") // must not panic
	s.PacketSent()
	s.SendQueueDepth(3)
	var ns *NetScope
	ns.Injected()
	ns.Backpressure(1)
	var cs *CtrlScope
	cs.CombineDone()
	cs.Ticks(4)

	h := NewHub()
	h.SetEnabled(false)
	sc := h.NodeScope(0)
	sc.Event("finite.start")
	sc.PacketSent()
	if h.Trace.Len() != 0 {
		t.Fatal("disabled hub recorded trace events")
	}
	if got := h.Metrics.CounterValue(Key{Name: "packets_sent_total", Node: 0, Proto: "cmam"}); got != 0 {
		t.Fatalf("disabled hub counted %d packets", got)
	}
}

func TestObsEventAxesCoverSpanRules(t *testing.T) {
	for name := range spanRules {
		if _, ok := eventAxes[name]; !ok {
			t.Errorf("span rule event %q has no axis attribution", name)
		}
	}
	if AxisForEvent("finite.ack.sent") != AxisFaultTol {
		t.Fatal("finite.ack.sent not attributed to fault tolerance")
	}
	if AxisForEvent("nonsense") != AxisOther {
		t.Fatal("unknown event not AxisOther")
	}
	if ProtoOfEvent("stream.ack.recv") != "stream" {
		t.Fatal("proto derivation broken")
	}
}

func TestObsPrometheusExport(t *testing.T) {
	h := NewHub()
	s := h.NodeScope(1)
	s.PacketSent()
	s.PacketSent()
	s.Event("finite.start")
	h.Metrics.Histogram(Key{Name: "transfer_latency_rounds", Node: 1, Proto: "finite"}, nil).Observe(5)

	var b bytes.Buffer
	if err := h.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE msglayer_packets_sent_total counter",
		`msglayer_packets_sent_total{node="1",proto="cmam"} 2`,
		`msglayer_protocol_events_total{node="1",proto="finite",event="finite.start"} 1`,
		`msglayer_transfer_latency_rounds_bucket{node="1",proto="finite",le="8"} 1`,
		`msglayer_transfer_latency_rounds_bucket{node="1",proto="finite",le="+Inf"} 1`,
		`msglayer_transfer_latency_rounds_sum{node="1",proto="finite"} 5`,
		`msglayer_transfer_latency_rounds_count{node="1",proto="finite"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	// Deterministic: a second render is byte-identical.
	var b2 bytes.Buffer
	if err := h.Metrics.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Fatal("prometheus export not deterministic")
	}
}

func TestObsMetricsJSONValid(t *testing.T) {
	h := NewHub()
	s := h.NodeScope(0)
	s.PacketSent()
	s.SendQueueDepth(2)
	data, err := h.Metrics.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []JSONMetric `json:"metrics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if len(doc.Metrics) == 0 {
		t.Fatal("metrics JSON empty")
	}
	found := false
	for _, m := range doc.Metrics {
		if m.Name == "packets_sent_total" && m.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("packets_sent_total missing from %s", data)
	}
}

func TestObsChromeTraceValid(t *testing.T) {
	h := NewHub()
	s := h.NodeScope(0)
	s.Event("finite.start")
	h.Tick()
	s.Event("finite.ack.recv")
	h.NetScope("cm5").Backpressure(1)

	var b bytes.Buffer
	if err := h.Trace.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Cat   string         `json:"cat"`
			Phase string         `json:"ph"`
			TS    *uint64        `json:"ts"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	var phases []string
	cats := map[string]bool{}
	for _, e := range doc.TraceEvents {
		phases = append(phases, e.Phase)
		cats[e.Cat] = true
		if e.Phase != "M" && e.TS == nil {
			t.Fatalf("event %s missing ts", e.Name)
		}
	}
	for _, want := range []string{"M", "i", "X"} {
		ok := false
		for _, p := range phases {
			if p == want {
				ok = true
			}
		}
		if !ok {
			t.Errorf("no %q-phase event in trace", want)
		}
	}
	if !cats["buffer_mgmt"] || !cats["fault_tol"] {
		t.Errorf("feature-axis categories missing: %v", cats)
	}
}

func TestObsHistogramQuantile(t *testing.T) {
	// Uniform 1..100 over the default bounds: rank 50 lands in the <=64
	// bucket; ranks 90 and 99 land in the <=128 bucket, whose bound
	// over-reports, so they cap at the exact max (100).
	h := NewHistogram(nil)
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	for _, tc := range []struct {
		q    float64
		want uint64
	}{{0, 1}, {0.5, 64}, {0.9, 100}, {0.99, 100}, {1, 100}} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("uniform Quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}

	// Point mass: the bucket bound (4) exceeds the max, so every quantile
	// reports the exact maximum instead.
	pm := NewHistogram([]uint64{1, 4, 16})
	for i := 0; i < 10; i++ {
		pm.Observe(3)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := pm.Quantile(q); got != 3 {
			t.Errorf("point-mass Quantile(%v) = %d, want 3", q, got)
		}
	}

	// Overflow bucket reports the exact max, not a bound.
	of := NewHistogram([]uint64{1, 2})
	of.Observe(1)
	of.Observe(500)
	if got := of.Quantile(0.99); got != 500 {
		t.Errorf("overflow Quantile(0.99) = %d, want 500", got)
	}
	if of.Max() != 500 {
		t.Errorf("Max = %d, want 500", of.Max())
	}

	// Empty histogram.
	if got := NewHistogram(nil).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %d, want 0", got)
	}
}

func TestObsHistogramQuantileEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name    string
		bounds  []uint64
		observe []uint64
		q       float64
		want    uint64
	}{
		{"empty-q0", nil, nil, 0, 0},
		{"empty-q1", nil, nil, 1, 0},
		{"empty-nan", nil, nil, math.NaN(), 0},
		{"single-bucket-q0", []uint64{8}, []uint64{5}, 0, 5},
		{"single-bucket-q1", []uint64{8}, []uint64{5}, 1, 5},
		{"single-bucket-overflow", []uint64{8}, []uint64{3, 20}, 1, 20},
		{"q0-is-rank-one", []uint64{1, 2, 4}, []uint64{1, 2, 2, 4}, 0, 1},
		{"q1-is-max", []uint64{1, 2, 4}, []uint64{1, 2, 3}, 1, 3},
		{"nan-clamps-to-zero", []uint64{1, 2, 4}, []uint64{1, 4}, math.NaN(), 1},
		{"negative-clamps-to-zero", []uint64{1, 2, 4}, []uint64{1, 4}, -0.5, 1},
		{"above-one-clamps-to-one", []uint64{1, 2, 4}, []uint64{1, 4}, 3.5, 4},
		{"bound-capped-at-max", []uint64{10, 100}, []uint64{4}, 0.5, 4},
		{"overflow-reports-max", []uint64{1, 2}, []uint64{1, 500}, 0.99, 500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(tc.bounds)
			for _, v := range tc.observe {
				h.Observe(v)
			}
			if got := h.Quantile(tc.q); got != tc.want {
				t.Errorf("Quantile(%v) = %d, want %d", tc.q, got, tc.want)
			}
		})
	}
}

func TestObsExportersIncludeQuantiles(t *testing.T) {
	h := NewHub()
	hist := h.Metrics.Histogram(Key{Name: "transfer_latency_rounds", Node: 0, Proto: "finite"}, nil)
	for v := uint64(1); v <= 100; v++ {
		hist.Observe(v)
	}

	var b bytes.Buffer
	if err := h.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE msglayer_transfer_latency_rounds_p50 gauge",
		`msglayer_transfer_latency_rounds_p50{node="0",proto="finite"} 64`,
		`msglayer_transfer_latency_rounds_p90{node="0",proto="finite"} 100`,
		`msglayer_transfer_latency_rounds_p99{node="0",proto="finite"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}

	data, err := h.Metrics.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []JSONMetric `json:"metrics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range doc.Metrics {
		if m.Kind == "histogram" && m.Name == "transfer_latency_rounds" {
			found = true
			if m.Quantiles["p50"] != 64 || m.Quantiles["p90"] != 100 || m.Quantiles["p99"] != 100 {
				t.Errorf("JSON quantiles = %v, want p50=64 p90=100 p99=100", m.Quantiles)
			}
		}
	}
	if !found {
		t.Fatal("histogram series missing from JSON export")
	}
}
