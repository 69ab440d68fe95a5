package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// render runs the tool and returns stdout, failing on nonzero exit.
func render(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("critpath %v exited %d: %s", args, code, stderr.String())
	}
	return stdout.String()
}

// TestReportByteIdenticalAcrossWorkers holds the report to the repo's
// parallelism contract: -parallel 1 and a fanned-out pool produce the same
// bytes.
func TestReportByteIdenticalAcrossWorkers(t *testing.T) {
	serial := render(t, "-parallel", "1", "-cycles", "200")
	fanned := render(t, "-parallel", "8", "-cycles", "200")
	if serial != fanned {
		t.Fatal("report differs between -parallel 1 and -parallel 8")
	}
}

// TestReportByteIdenticalAcrossEngines holds the report to the flit-engine
// contract: the dense reference and event-driven engines trace identically.
func TestReportByteIdenticalAcrossEngines(t *testing.T) {
	event := render(t, "-cycles", "200")
	denseEngine = true
	t.Cleanup(func() { denseEngine = false })
	dense := render(t, "-cycles", "200")
	if event != dense {
		t.Fatal("report differs between event-driven and dense flit engines")
	}
}

// TestReportShowsAllSections sanity-checks the default text report.
func TestReportShowsAllSections(t *testing.T) {
	out := render(t, "-cycles", "200")
	for _, s := range []string{
		"== scenario single",
		"== scenario cm5-finite",
		"== scenario cr-stream",
		"== flit transit: deterministic routing",
		"== flit transit: cr routing",
		"where the time goes",
		"critical path",
		"reconciled exactly against registry counters",
	} {
		if !strings.Contains(out, s) {
			t.Fatalf("report missing %q", s)
		}
	}
}

// TestJSONReportParses checks the -json document is valid and covers every
// scenario.
func TestJSONReportParses(t *testing.T) {
	out := render(t, "-json", "-noflit", "-scenarios", "cm5-finite,cm5-stream")
	var doc struct {
		Scenarios map[string]json.RawMessage `json:"scenarios"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(doc.Scenarios) != 2 {
		t.Fatalf("got %d scenarios, want 2", len(doc.Scenarios))
	}
}

// TestFlowExport checks the Chrome flow trace contains flow arrows.
func TestFlowExport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-noflit", "-scenarios", "cm5-finite", "-flow", "-"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, `"ph": "s"`) || !strings.Contains(out, `"ph": "f"`) {
		t.Fatal("flow export carries no flow arrows")
	}
}

// TestUnknownScenarioFails covers the error path.
func TestUnknownScenarioFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenarios", "nope", "-noflit"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown scenario accepted")
	}
}

// TestObsCritpathTimeline exercises -timeline-out: the scenario sequence
// runs again into one sampled hub, the export reconciles (the writer
// refuses otherwise), and a .csv suffix selects the CSV form.
func TestObsCritpathTimeline(t *testing.T) {
	dir := t.TempDir()
	tlPath := filepath.Join(dir, "tl.json")
	out := render(t, "-noflit", "-scenarios", "cm5-finite,cr-finite", "-words", "16",
		"-timeline-out", tlPath, "-timeline-interval", "8")
	if !strings.Contains(out, "scenario cm5-finite") {
		t.Fatalf("report missing scenario section:\n%.500s", out)
	}
	data, err := os.ReadFile(tlPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Interval uint64            `json:"interval"`
		Windows  []json.RawMessage `json:"windows"`
		Digest   string            `json:"digest"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("timeline does not parse: %v", err)
	}
	if doc.Interval != 8 || len(doc.Windows) == 0 || doc.Digest == "" {
		t.Fatalf("timeline missing fields: interval=%d windows=%d digest=%q", doc.Interval, len(doc.Windows), doc.Digest)
	}

	csvPath := filepath.Join(dir, "tl.csv")
	render(t, "-noflit", "-scenarios", "single", "-timeline-out", csvPath)
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "window,start,end") {
		t.Fatalf("csv header: %.100s", csv)
	}

	// A bad interval is a usage error before any run happens.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-timeline-interval", "0", "-timeline-out", "-"}, &stdout, &stderr); code != 2 {
		t.Fatalf("interval 0 exited %d, want 2", code)
	}
}
