package critpath_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"msglayer/internal/critpath"
	"msglayer/internal/experiments"
	"msglayer/internal/flitnet"
	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/topology"
)

// runCanonical runs one canonical scenario into a fresh hub.
func runCanonical(t *testing.T, name string, words int) *obs.Hub {
	t.Helper()
	h := obs.NewHub()
	experiments.SetObserver(h)
	defer experiments.SetObserver(nil)
	if _, err := experiments.RunCanonical(name, words); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return h
}

// TestReconcileCanonicalExact is the keystone check of the per-message
// view: on every canonical scenario, the per-message attribution built from
// the trace must reconcile EXACTLY with the aggregate registry counters —
// the same counters the Table 1-3 reproduction is checked against.
func TestReconcileCanonicalExact(t *testing.T) {
	for _, name := range experiments.CanonicalScenarios() {
		t.Run(name, func(t *testing.T) {
			h := runCanonical(t, name, 64)
			if err := critpath.Reconcile(h); err != nil {
				t.Fatalf("per-message attribution does not reconcile with counters: %v", err)
			}
			events := h.Trace.Events()
			a := critpath.Analyze(events)
			if len(a.Messages) == 0 {
				t.Fatal("no messages reconstructed from trace")
			}
			checkReference(t, events, a)
			for _, m := range a.Messages {
				var byCat uint64
				for _, v := range m.ByCategory {
					byCat += v
				}
				if byCat != m.Latency {
					t.Fatalf("msg %d: categories sum to %d, latency is %d", m.ID, byCat, m.Latency)
				}
			}
		})
	}
}

// TestReconcileDetectsCounterDrift proves the reconciliation is a real
// equality check: a counter bumped without a matching trace event fails it.
func TestReconcileDetectsCounterDrift(t *testing.T) {
	h := runCanonical(t, "cm5-finite", 16)
	h.Metrics.Counter(obs.Key{
		Name: "protocol_events_total", Node: 0, Proto: "finite", Event: "finite.start",
	}).Inc()
	if err := critpath.Reconcile(h); err == nil {
		t.Fatal("reconciliation accepted a counter with no matching trace event")
	}
}

// TestReconcileDistinctCells counts events per distinct (name, proto,
// node) cell: one event name on several nodes, node ids at both ends of
// int, and hundreds of dynamic names. Each reconciles exactly and still
// catches a drifted counter.
func TestReconcileDistinctCells(t *testing.T) {
	cases := map[string]func(h *obs.Hub) obs.Key{
		"narrow-nodes": func(h *obs.Hub) obs.Key {
			for node := 0; node < 4; node++ {
				for i := 0; i <= node; i++ {
					h.NodeScope(node).Event("finite.start")
				}
			}
			return obs.Key{Name: "protocol_events_total", Node: 2, Proto: "finite", Event: "finite.start"}
		},
		"extreme-nodes": func(h *obs.Hub) obs.Key {
			for _, node := range []int{math.MinInt, 0, 3, math.MaxInt} {
				h.NodeScope(node).Event("finite.start")
				h.NodeScope(node).Event("finite.packet.sent")
			}
			return obs.Key{Name: "protocol_events_total", Node: math.MinInt, Proto: "finite", Event: "finite.start"}
		},
		"many-names": func(h *obs.Hub) obs.Key {
			for i := 0; i < 600; i++ {
				h.NodeScope(i % 3).Event(fmt.Sprintf("dyn%d.event", i))
			}
			h.NetScope("cm5").Backpressure(1)
			return obs.Key{Name: "protocol_events_total", Node: 2, Proto: "dyn599", Event: "dyn599.event"}
		},
	}
	for name, record := range cases {
		t.Run(name, func(t *testing.T) {
			h := obs.NewHub()
			drift := record(h)
			if err := critpath.Reconcile(h); err != nil {
				t.Fatal(err)
			}
			h.Metrics.Counter(drift).Inc()
			if err := critpath.Reconcile(h); err == nil {
				t.Fatalf("reconciliation accepted a drifted %s", drift)
			}
		})
	}
}

// TestReconcileRefusesDroppedTrace: a truncated trace cannot reconcile and
// must error rather than silently passing a partial check.
func TestReconcileRefusesDroppedTrace(t *testing.T) {
	h := obs.NewHub()
	h.Trace = obs.NewTracer(4) // tiny cap: the run will overflow it
	experiments.SetObserver(h)
	defer experiments.SetObserver(nil)
	if _, err := experiments.RunCanonical("cm5-finite", 16); err != nil {
		t.Fatal(err)
	}
	if h.Trace.Dropped() == 0 {
		t.Fatal("test setup: trace did not overflow")
	}
	err := critpath.Reconcile(h)
	if err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("want dropped-events error, got %v", err)
	}
}

// runFlit drives a small flit network with a FlitScope attached and returns
// the hub. Identities mix traced packets (explicit Msg/Pkt/Span) and
// untraced ones (synthetic worm identities).
func runFlit(t *testing.T, dense bool) *obs.Hub {
	t.Helper()
	topo, err := topology.NewMesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := flitnet.New(flitnet.Config{
		Topology: topo, Mode: flitnet.CR,
		BufferFlits: 3, InjectQueue: 4, KillTimeout: 8, RetryBackoff: 4,
		DenseReference: dense,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := obs.NewHub()
	net.SetFlitObserver(h.FlitScope())
	for i := 0; i < 6; i++ {
		p := network.Packet{Src: i % 4, Dst: (i + 1) % 4, Data: []network.Word{network.Word(i)}}
		if i%2 == 0 {
			p.Trace = &network.Trace{Msg: uint64(i + 1), Pkt: uint64(i + 1), Span: uint64(i + 100)}
		}
		if err := net.Inject(p); err != nil {
			t.Fatal(err)
		}
		net.Tick(1)
	}
	if !net.TickUntilQuiet(10000) {
		t.Fatal("network never drained")
	}
	for node := 0; node < 4; node++ {
		for {
			if _, ok := net.TryRecv(node); !ok {
				break
			}
		}
	}
	return h
}

// TestFlitTraceReconcilesAndAttributes covers the transit leg: flit-level
// events reconcile against their mirrored counters and reconstruct into
// per-worm messages, synthetic ids marked as such.
func TestFlitTraceReconcilesAndAttributes(t *testing.T) {
	h := runFlit(t, false)
	if err := critpath.Reconcile(h); err != nil {
		t.Fatalf("flit trace does not reconcile: %v", err)
	}
	a := critpath.Analyze(h.Trace.Events())
	if len(a.Messages) == 0 {
		t.Fatal("no messages from flit trace")
	}
	var traced, synthetic int
	for _, m := range a.Messages {
		if m.Synthetic {
			synthetic++
		} else {
			traced++
		}
	}
	if traced == 0 || synthetic == 0 {
		t.Fatalf("want both traced and synthetic messages, got %d traced, %d synthetic", traced, synthetic)
	}
}

// TestFlitTraceIdenticalAcrossEngines holds the dense reference engine and
// the event-driven engine to byte-identical traces (and hence byte-identical
// critpath reports).
func TestFlitTraceIdenticalAcrossEngines(t *testing.T) {
	render := func(dense bool) (string, string) {
		h := runFlit(t, dense)
		var flow bytes.Buffer
		if err := critpath.WriteChromeFlow(&flow, h.Trace.Events()); err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		if err := critpath.WriteText(&text, critpath.Analyze(h.Trace.Events())); err != nil {
			t.Fatal(err)
		}
		return flow.String(), text.String()
	}
	f1, t1 := render(false)
	f2, t2 := render(true)
	if f1 != f2 {
		t.Error("chrome flow export differs between event-driven and dense engines")
	}
	if t1 != t2 {
		t.Error("text report differs between event-driven and dense engines")
	}
}

// TestRenderDeterministic requires byte-identical text, JSON, and flow
// exports across identical runs.
func TestRenderDeterministic(t *testing.T) {
	render := func() (string, string, string) {
		h := runCanonical(t, "cm5-stream", 32)
		a := critpath.Analyze(h.Trace.Events())
		var text, flow bytes.Buffer
		if err := critpath.WriteText(&text, a); err != nil {
			t.Fatal(err)
		}
		js, err := critpath.JSON(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := critpath.WriteChromeFlow(&flow, h.Trace.Events()); err != nil {
			t.Fatal(err)
		}
		return text.String(), string(js), flow.String()
	}
	t1, j1, f1 := render()
	t2, j2, f2 := render()
	if t1 != t2 {
		t.Error("text report differs between identical runs")
	}
	if j1 != j2 {
		t.Error("JSON report differs between identical runs")
	}
	if f1 != f2 {
		t.Error("chrome flow export differs between identical runs")
	}
}

// TestCriticalPathCoversRun sanity-checks the cross-message chain: it ends
// at the run's last event and its categorized gaps sum to its span.
func TestCriticalPathCoversRun(t *testing.T) {
	h := runCanonical(t, "cm5-finite", 64)
	events := h.Trace.Events()
	a := critpath.Analyze(events)
	steps := a.Critical.Steps
	if len(steps) < 2 {
		t.Fatalf("critical path has %d steps", len(steps))
	}
	last := events[len(events)-1]
	if steps[len(steps)-1].Name != last.Name {
		t.Fatalf("critical path ends at %q, run ends at %q", steps[len(steps)-1].Name, last.Name)
	}
	var sum uint64
	for _, v := range a.Critical.ByCategory {
		sum += v
	}
	if sum != a.Critical.Span {
		t.Fatalf("critical-path categories sum to %d, span is %d", sum, a.Critical.Span)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].Time < steps[i-1].Time {
			t.Fatal("critical path steps out of time order")
		}
	}
}

// TestQuantileExact pins the nearest-rank quantile to observed values.
func TestQuantileExact(t *testing.T) {
	a := critpath.Analyze(nil)
	if got := a.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %d", got)
	}
	h := runCanonical(t, "cm5-stream", 32)
	a = critpath.Analyze(h.Trace.Events())
	if len(a.Latencies) == 0 {
		t.Fatal("no latencies")
	}
	if got, want := a.Quantile(0), a.Latencies[0]; got != want {
		t.Fatalf("q0 = %d, want min %d", got, want)
	}
	if got, want := a.Quantile(1), a.Latencies[len(a.Latencies)-1]; got != want {
		t.Fatalf("q1 = %d, want max %d", got, want)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		v := a.Quantile(q)
		found := false
		for _, l := range a.Latencies {
			if l == v {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("quantile %.2f = %d is not an observed latency", q, v)
		}
	}
}

// TestSlowestMessagesOrder pins the report's slowest-messages list to
// latency descending, ties by ascending ID, whatever the input order.
func TestSlowestMessagesOrder(t *testing.T) {
	a := &critpath.Analysis{}
	for i, lat := range []uint64{5, 9, 5, 9, 1, 9, 7} {
		id := uint64(70 - 10*i) // IDs descend through the input
		a.Messages = append(a.Messages, &critpath.Message{ID: id, Latency: lat})
		a.Latencies = append(a.Latencies, lat)
	}
	var b bytes.Buffer
	if err := critpath.WriteText(&b, a); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "msg" {
			got = append(got, f[1])
		}
	}
	if got, want := strings.Join(got, " "), "20 40 60 10 50"; got != want {
		t.Fatalf("slowest messages %s, want %s", got, want)
	}
}

// TestAnalyzeExtremeNodes: node values at both ends of int share a trace
// (the node index spans the whole range) and the critical path still
// chains through each node's previous event.
func TestAnalyzeExtremeNodes(t *testing.T) {
	events := []obs.TraceEvent{
		{TS: 1, Node: math.MinInt, Name: "a", MsgID: 1},
		{TS: 2, Node: math.MaxInt, Name: "b", MsgID: 2},
		{TS: 3, Node: math.MinInt, Name: "c"},
		{TS: 4, Node: math.MaxInt, Name: "d", MsgID: 2},
	}
	a := critpath.Analyze(events)
	var names []string
	for _, s := range a.Critical.Steps {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, " "); got != "b d" {
		t.Fatalf("critical path %q, want %q", got, "b d")
	}
	if len(a.Messages) != 2 || a.Unattributed != 1 {
		t.Fatalf("%d messages, %d unattributed; want 2, 1", len(a.Messages), a.Unattributed)
	}
}
