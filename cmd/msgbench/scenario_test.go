package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"msglayer/internal/obs"
	"msglayer/internal/obs/diff"
)

// scenario runs msgbench with args and returns stdout, failing on a
// nonzero exit.
func scenario(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("msgbench %v exited %d: %s", args, code, stderr.String())
	}
	return stdout.String()
}

// readFile returns a file's contents, failing the test on error.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestObsMsgbenchScenarioMetrics: every transfer scenario records packet
// and protocol event counters, and stdout carries only the artifact.
func TestObsMsgbenchScenarioMetrics(t *testing.T) {
	for _, scen := range []string{"cm5-finite", "cm5-stream", "cr-finite", "cr-stream"} {
		out := scenario(t, "-scenario", scen, "-words", "32", "-metrics", "-")
		if !strings.HasPrefix(out, "# HELP ") {
			t.Errorf("%s: stdout is not just the metrics dump:\n%.200s", scen, out)
		}
		for _, want := range []string{"msglayer_packets_sent_total", "msglayer_protocol_events_total"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: metrics dump missing %s", scen, want)
			}
		}
	}
}

// TestObsMsgbenchScenarioJSONMetricsValid: a .json -metrics destination
// selects the JSON export, with every series kind present.
func TestObsMsgbenchScenarioJSONMetricsValid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	scenario(t, "-scenario", "cm5-finite", "-metrics", path)
	var doc struct {
		Metrics []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(readFile(t, path), &doc); err != nil {
		t.Fatalf("JSON metrics do not parse: %v", err)
	}
	kinds := map[string]bool{}
	for _, m := range doc.Metrics {
		kinds[m.Kind] = true
	}
	for _, k := range []string{"counter", "gauge", "histogram"} {
		if !kinds[k] {
			t.Errorf("no %s series in JSON metrics", k)
		}
	}
}

// TestObsMsgbenchScenarioChromeTraceValid: the trace of all the scenarios
// parses, carries every Feature axis, and has monotonic instants.
func TestObsMsgbenchScenarioChromeTraceValid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	scenario(t, "-scenario", "all", "-words", "48", "-trace-out", path)
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Cat   string `json:"cat"`
			Phase string `json:"ph"`
			TS    uint64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(readFile(t, path), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	cats := map[string]bool{}
	spans := 0
	var lastTS uint64
	for _, e := range doc.TraceEvents {
		cats[e.Cat] = true
		if e.Phase == "X" {
			spans++
		}
		if e.Phase == "i" {
			if e.TS <= lastTS && lastTS != 0 {
				t.Fatalf("instant timestamps not monotonic at %s (%d after %d)", e.Name, e.TS, lastTS)
			}
			lastTS = e.TS
		}
	}
	// base and buffer_mgmt come from the finite protocol, fault_tol from
	// stream acks, in_order from stream sequencing.
	for _, axis := range []string{"base", "buffer_mgmt", "in_order", "fault_tol"} {
		if !cats[axis] {
			t.Errorf("feature axis %q absent from trace categories", axis)
		}
	}
	// The finite scenarios record a src and a dst transfer span each.
	if spans < 4 {
		t.Errorf("only %d duration spans recorded, want >= 4", spans)
	}
}

// TestObsMsgbenchScenarioDeterministic runs every scenario twice and
// requires byte-identical metrics and trace output.
func TestObsMsgbenchScenarioDeterministic(t *testing.T) {
	render := func() (string, string) {
		trace := filepath.Join(t.TempDir(), "trace.json")
		metrics := scenario(t, "-scenario", "all", "-metrics", "-", "-trace-out", trace)
		return metrics, string(readFile(t, trace))
	}
	m1, t1 := render()
	m2, t2 := render()
	if m1 != m2 {
		t.Error("metrics dump differs between identical runs")
	}
	if t1 != t2 {
		t.Error("chrome trace differs between identical runs")
	}
}

// TestObsMsgbenchScenarioUnwritableTraceOut: an unwritable -trace-out is a
// non-zero exit that names the destination, not a silent success. A
// directory cannot be opened as a file even when tests run as root.
func TestObsMsgbenchScenarioUnwritableTraceOut(t *testing.T) {
	dest := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scenario", "cm5-finite", "-words", "16",
		"-metrics", filepath.Join(t.TempDir(), "m.txt"), "-trace-out", dest}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("unwritable -trace-out exited 0; stderr: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "writing "+dest) {
		t.Errorf("error does not name the destination: %s", stderr.String())
	}
}

// TestObsMsgbenchScenarioCritpath: every canonical scenario's report
// carries the attribution sections.
func TestObsMsgbenchScenarioCritpath(t *testing.T) {
	out := scenario(t, "-scenario", "all", "-critpath", "-")
	for _, want := range []string{"critical-path report:", "where the time goes", "critical path"} {
		if !strings.Contains(out, want) {
			t.Errorf("critpath report missing %q:\n%.2000s", want, out)
		}
	}
}

// TestObsMsgbenchScenarioCritpathJSON: a .json -critpath destination
// writes a report that parses, covers the run, and that obsdiff loads and
// self-diffs to zero.
func TestObsMsgbenchScenarioCritpathJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.json")
	scenario(t, "-scenario", "cm5-finite,cm5-stream", "-critpath", path)
	var doc struct {
		Messages   int               `json:"messages"`
		ByCategory map[string]uint64 `json:"by_category"`
	}
	if err := json.Unmarshal(readFile(t, path), &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if doc.Messages == 0 || len(doc.ByCategory) == 0 {
		t.Fatalf("JSON report is empty: %+v", doc)
	}
	art, err := diff.LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := diff.CompareArtifacts(art, art)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Zero() {
		t.Error("critpath report does not self-diff to zero")
	}
}

// TestObsMsgbenchCritpathReconcileMismatch: a report whose trace does not
// reconcile against the registry counters is a runtime error, exit 1.
func TestObsMsgbenchCritpathReconcileMismatch(t *testing.T) {
	orig := reconcile
	reconcile = func(*obs.Hub) error { return errors.New("counter drift") }
	t.Cleanup(func() { reconcile = orig })
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "cm5-finite", "-critpath", "-"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "reconciliation failed: counter drift") {
		t.Errorf("stderr does not report the mismatch: %s", stderr.String())
	}
}

// TestObsMsgbenchScenarioFlow: -flow writes the run's Chrome trace with
// per-message flow arrows.
func TestObsMsgbenchScenarioFlow(t *testing.T) {
	out := scenario(t, "-scenario", "cm5-finite", "-flow", "-")
	if !strings.Contains(out, `"ph": "s"`) || !strings.Contains(out, `"ph": "f"`) {
		t.Fatal("flow export carries no flow arrows")
	}
}

// TestObsMsgbenchScenarioTimeline: the scenario sequence samples into one
// reconciled round-clock timeline, and a .csv suffix selects the CSV form.
func TestObsMsgbenchScenarioTimeline(t *testing.T) {
	dir := t.TempDir()
	tlPath := filepath.Join(dir, "tl.json")
	scenario(t, "-scenario", "cm5-finite,cr-finite", "-words", "16",
		"-timeline-out", tlPath, "-timeline-interval", "8")
	var doc struct {
		Interval uint64            `json:"interval"`
		Windows  []json.RawMessage `json:"windows"`
		Digest   string            `json:"digest"`
	}
	if err := json.Unmarshal(readFile(t, tlPath), &doc); err != nil {
		t.Fatalf("timeline does not parse: %v", err)
	}
	if doc.Interval != 8 || len(doc.Windows) == 0 || doc.Digest == "" {
		t.Fatalf("timeline missing fields: interval=%d windows=%d digest=%q", doc.Interval, len(doc.Windows), doc.Digest)
	}

	csvPath := filepath.Join(dir, "tl.csv")
	scenario(t, "-scenario", "single", "-timeline-out", csvPath)
	if csv := readFile(t, csvPath); !strings.HasPrefix(string(csv), "window,start,end") {
		t.Fatalf("csv header: %.100s", csv)
	}
}
