package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// layers names every layer the benchmark calls into, plus "bench", its
// own code. Their self times sum to the traced passes' wall time.
var layers = []string{
	"bench", "workload", "flitnet", "obs", "timeline", "monitor", "critpath",
	"machine", "network", "cost", "cmam", "protocols", "crmsg",
}

// callMetrics maps each per-layer time metric to the spans it sums: the
// inclusive host time of those calls, per traced pass.
var callMetrics = []struct {
	metric string
	spans  []string
}{
	{"workload.cycle_s", []string{"workload.cycle"}},
	{"flitnet.inject_s", []string{"flitnet.inject"}},
	{"flitnet.tick_s", []string{"flitnet.tick"}},
	{"flitnet.drain_s", []string{"flitnet.drain", "flitnet.recv"}},
	{"timeline.advance_s", []string{"timeline.advance"}},
	{"timeline.reconcile_s", []string{"timeline.reconcile"}},
	{"timeline.snapshot_s", []string{"timeline.snapshot"}},
	{"timeline.export_json_s", []string{"timeline.export_json"}},
	{"monitor.replay_s", []string{"monitor.replay"}},
	{"critpath.reconcile_s", []string{"critpath.reconcile"}},
	{"critpath.analyze_s", []string{"critpath.analyze"}},
	{"critpath.render_s", []string{"critpath.render"}},
	{"obs.export_prometheus_s", []string{"obs.export_prometheus"}},
	{"machine.new_s", []string{"machine.new"}},
	{"machine.run_s", []string{"machine.run"}},
	{"protocols.pump_s", []string{"protocols.pump"}},
	{"crmsg.pump_s", []string{"crmsg.pump"}},
}

// countMetrics are the per-pass counts the workloads record at the same
// boundaries; a workload that does not reach a layer reports 0.
var countMetrics = []string{
	"workload.arrivals", "flitnet.inject_calls", "flitnet.backpressure",
	"flitnet.cycles", "flitnet.idle_skipped", "flitnet.flit_moves", "flitnet.pad_flits",
	"flitnet.delivered", "flitnet.kills", "flitnet.retries", "flitnet.failed_worms",
	"obs.trace_events", "obs.trace_dropped", "obs.series",
	"timeline.windows", "timeline.export_json_bytes",
	"monitor.windows", "monitor.incidents", "critpath.messages",
	"obs.export_prometheus_bytes",
	"machine.rounds", "network.injected", "network.dropped", "network.corrupt",
	"cost.instr_total", "cost.instr_base", "cost.instr_buffer", "cost.instr_inorder", "cost.instr_fault",
}

// layerMetrics derives the traced run's per-layer metrics. Times are
// means per traced pass, so the layers' self times add up to the traced
// wall time exactly; counts are one pass's (every pass has the same).
func (r *runner) layerMetrics(tr *tracer) map[string]metric {
	b := tr.breakdown()
	passes := float64(len(r.tracedNs))
	perPass := func(ns int64) float64 { return float64(ns) / passes / 1e9 }
	m := map[string]metric{}
	for _, c := range callMetrics {
		var ns int64
		for _, s := range c.spans {
			ns += b.busy[s]
		}
		m[c.metric] = metric{perPass(ns), "s"}
	}
	for _, name := range countMetrics {
		unit := "count"
		if strings.HasSuffix(name, "_bytes") {
			unit = "bytes"
		}
		m[name] = metric{r.counts[name], unit}
	}
	wall := perPass(b.root)
	for _, l := range layers {
		self := perPass(b.self[l])
		m[l+".self_s"] = metric{self, "s"}
		m[l+".self_share"] = metric{ratio(self, wall), "ratio"}
	}
	c := r.counts
	moves := c["flitnet.flit_moves"]
	m["flitnet.ns_per_flit_move"] = metric{ratio((m["flitnet.tick_s"].Value+m["flitnet.drain_s"].Value)*1e9, moves), "ns"}
	// Every accepted worm carries one payload word: head, body and tail
	// flits plus any padding.
	pads := c["flitnet.pad_flits"]
	m["flitnet.pad_share"] = metric{ratio(pads, pads+3*c["flitnet.delivered"]+3*c["flitnet.failed_worms"]), "ratio"}
	m["flitnet.accept_ratio"] = metric{ratio(c["flitnet.delivered"]+c["flitnet.failed_worms"], c["workload.arrivals"]), "ratio"}
	total := c["cost.instr_total"]
	m["cost.overhead_share"] = metric{ratio(total-c["cost.instr_base"], total), "ratio"}
	m["cost.ns_per_instr"] = metric{ratio(m["machine.run_s"].Value*1e9, total), "ns"}
	untraced := median(r.wallNs) / 1e9
	m["bench.traced_wall_s"] = metric{wall, "s"}
	m["bench.untraced_wall_s"] = metric{untraced, "s"}
	m["bench.trace_overhead"] = metric{ratio(median(r.tracedNs)/1e9, untraced), "ratio"}
	m["bench.ref_us"] = metric{median(r.refNs) / 1e3, "us"}
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS sets the process's peak resident set (VmHWM) back to its
// current resident set. On a kernel without the control the peak simply
// keeps its value, and peak_rss_mb becomes the process's running peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// report prints the run's metrics to standard error, the traced run's
// self times as a table with each ratio's base beside it.
func (r *runner) report(out result) {
	w := r.stderr
	fmt.Fprintf(w, "%s: %d passes untraced, %d traced; %d operations attempted, %d failed (fail_ratio %.4g)\n",
		r.name, len(r.wallNs), len(r.tracedNs), out.Attempted, out.Failed, ratio(float64(out.Failed), float64(out.Attempted)))
	fmt.Fprintf(w, "  host ms per pass, untraced %v traced %v; reference kernel us per pass %v\n",
		msList(r.wallNs), msList(r.tracedNs), usList(r.refNs))
	m := out.Metrics
	if len(r.tracedNs) == 0 {
		for _, k := range sortedKeys(m) {
			fmt.Fprintf(w, "  %-16s %14.6g %s\n", k, m[k].Value, m[k].Unit)
		}
		return
	}
	fmt.Fprintf(w, "  traced wall %.4f s per pass, untraced %.4f s: tracing overhead %.3fx\n",
		m["bench.traced_wall_s"].Value, m["bench.untraced_wall_s"].Value, m["bench.trace_overhead"].Value)
	fmt.Fprintf(w, "  %-10s %12s %8s\n", "layer", "self_s", "share")
	for _, l := range layers {
		if self := m[l+".self_s"].Value; self != 0 {
			fmt.Fprintf(w, "  %-10s %12.6f %7.2f%%\n", l, self, 100*m[l+".self_share"].Value)
		}
	}
	bases := []struct{ ratio, base string }{
		{"flitnet.ns_per_flit_move", "flitnet.flit_moves"},
		{"flitnet.pad_share", "flitnet.pad_flits"},
		{"flitnet.accept_ratio", "workload.arrivals"},
		{"cost.overhead_share", "cost.instr_total"},
		{"cost.ns_per_instr", "cost.instr_total"},
	}
	for _, b := range bases {
		if m[b.ratio].Value != 0 {
			fmt.Fprintf(w, "  %-26s %12.6g %-5s (base %s = %.0f)\n", b.ratio, m[b.ratio].Value, m[b.ratio].Unit, b.base, r.counts[b.base])
		}
	}
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func msList(ns []int64) []int64 { return scaled(ns, 1e6) }

func usList(ns []int64) []int64 { return scaled(ns, 1e3) }

func scaled(ns []int64, div int64) []int64 {
	out := make([]int64, len(ns))
	for i, v := range ns {
		out[i] = v / div
	}
	return out
}
