package critpath

import (
	"fmt"
	"strings"

	"msglayer/internal/obs"
)

// Reconcile cross-checks a hub's trace against its metrics registry and
// returns an error on any disagreement. Every instant trace event mirrors
// exactly one counter increment (protocol events, network anomalies,
// control-network completions), so the per-message attribution built from
// the trace provably accounts for exactly what the aggregate counters
// recorded — no event double-counted, none missing. The check is exact and
// bidirectional: each event-mirrored counter must equal its trace-derived
// count, and no trace event may lack a counter.
//
// Reconciliation is impossible when the tracer hit its retention cap, so a
// non-zero Dropped() is an error rather than a silent partial check.
func Reconcile(h *obs.Hub) error {
	if d := h.Trace.Dropped(); d > 0 {
		return fmt.Errorf("trace dropped %d events (raise the tracer cap); per-message attribution cannot reconcile against counters", d)
	}

	expected := make(map[obs.Key]uint64)
	for c, n := range instantCounts(h.Trace) {
		expected[counterFor(h.Trace.Symbol(c.name), h.Trace.Symbol(c.proto), c.node)] += n
	}

	// Every trace-derived count must match its counter...
	for k, want := range expected {
		if got := h.Metrics.CounterValue(k); got != want {
			return fmt.Errorf("counter %s = %d but trace holds %d matching events", k, got, want)
		}
	}
	// ...and every event-mirrored counter must be explained by the trace
	// (a counter the trace never saw must be zero).
	for _, k := range h.Metrics.CounterKeys() {
		if !eventMirrored(k) {
			continue
		}
		if _, seen := expected[k]; seen {
			continue
		}
		if got := h.Metrics.CounterValue(k); got != 0 {
			return fmt.Errorf("counter %s = %d but no trace event accounts for it", k, got)
		}
	}
	return nil
}

// instantCell is one distinct (name, proto, node) of the trace's instant
// events, with name and proto as the tracer's symbol ids.
type instantCell struct {
	name, proto uint32
	node        int
}

// instantCounts counts the trace's instant events per distinct cell, so
// counter keys are resolved once per cell rather than once per event.
func instantCounts(tr *obs.Tracer) map[instantCell]uint64 {
	counts := make(map[instantCell]uint64)
	for i := 0; i < tr.Len(); i++ {
		if r := tr.At(i); r.Phase != obs.PhaseComplete {
			counts[instantCell{r.Name, r.Proto, r.Node}]++
		}
	}
	return counts
}

// netAnomalies maps the network-substrate anomaly event names (emitted with
// the destination node and the substrate as Proto) to their counters.
var netAnomalies = map[string]string{
	"net.backpressure": "net_backpressure_total",
	"net.dropped":      "net_dropped_total",
	"net.corrupt":      "net_corrupt_total",
	"net.rejected":     "net_rejected_total",
}

// ctrlEvents maps control-network completion events to their counters.
var ctrlEvents = map[string]string{
	"ctrlnet.combine.done": "ctrlnet_combines_total",
	"ctrlnet.scan.done":    "ctrlnet_scans_total",
}

// counterFor returns the registry key an instant event with the given
// name, proto and node incremented.
func counterFor(name, proto string, node int) obs.Key {
	if counter, ok := netAnomalies[name]; ok {
		// NetScope anomalies: counted per substrate, traced per dest node.
		return obs.Key{Name: counter, Node: -1, Proto: proto}
	}
	if counter, ok := ctrlEvents[name]; ok {
		return obs.Key{Name: counter, Node: -1, Proto: "ctrlnet"}
	}
	// NodeScope and FlitScope events mirror protocol_events_total directly
	// (FlitScope files under Node -1, Proto "flitnet").
	return obs.Key{Name: "protocol_events_total", Node: node, Proto: proto, Event: name}
}

// eventMirrored reports whether a counter key is one the trace mirrors
// one-to-one (and must therefore be fully explained by trace events).
// Counters like packets_sent_total or run_rounds_total aggregate without a
// per-increment trace event and are outside the reconciliation contract.
func eventMirrored(k obs.Key) bool {
	switch k.Name {
	case "protocol_events_total",
		"ctrlnet_combines_total", "ctrlnet_scans_total":
		return true
	}
	return strings.HasPrefix(k.Name, "net_") && isAnomalyCounter(k.Name)
}

// isAnomalyCounter reports whether a net_* counter has a mirroring anomaly
// event (injected/delivered/hw_retries do not).
func isAnomalyCounter(name string) bool {
	for _, c := range netAnomalies {
		if c == name {
			return true
		}
	}
	return false
}
