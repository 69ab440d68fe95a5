package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"msglayer/internal/obs"
	"msglayer/internal/obs/monitor"
	"msglayer/internal/obs/timeline"
)

// writeRules drops a rules file into a temp dir.
func writeRules(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// fixtureTimeline writes a recorded timeline with a violation that opens
// and closes again, so -fail-on open and any diverge.
func fixtureTimeline(t *testing.T) string {
	t.Helper()
	reg := obs.NewRegistry()
	c := reg.Counter(obs.Key{Name: "net_delivered_total", Node: -1, Proto: "fixture"})
	s := timeline.New(reg, timeline.Config{Interval: 10})
	for cycle := uint64(1); cycle <= 40; cycle++ {
		if cycle <= 10 || cycle > 20 {
			c.Add(2) // 200 per kcycle; the middle window stalls at 0
		}
		s.Advance(cycle)
	}
	s.Flush(40)
	data, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tl.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// closingRules opens on the stalled window and closes on recovery.
const closingRules = `{"rules": [{"name": "floor", "kind": "rate",
  "match": {"prefix": "net_delivered_total"}, "min": 100}]}`

func runTool(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestObsmonFailOnPolicies: an incident that closes before the end exits 0
// under -fail-on open, 3 under any, 0 under none.
func TestObsmonFailOnPolicies(t *testing.T) {
	tl := fixtureTimeline(t)
	rules := writeRules(t, "closing.json", closingRules)
	for _, tc := range []struct {
		failOn string
		want   int
	}{{"open", 0}, {"any", 3}, {"none", 0}} {
		code, out, errOut := runTool(t, "-rules", rules, "-timeline", tl, "-fail-on", tc.failOn)
		if code != tc.want {
			t.Errorf("-fail-on %s exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
				tc.failOn, code, tc.want, out, errOut)
		}
	}
}

// TestObsmonReplayDeterminism: replaying the same timeline twice renders
// byte-identical reports in every format.
func TestObsmonReplayDeterminism(t *testing.T) {
	tl := fixtureTimeline(t)
	rules := writeRules(t, "closing.json", closingRules)
	for _, format := range []string{"text", "json", "csv"} {
		_, a, _ := runTool(t, "-rules", rules, "-timeline", tl, "-format", format, "-fail-on", "none")
		_, b, _ := runTool(t, "-rules", rules, "-timeline", tl, "-format", format, "-fail-on", "none")
		if a != b {
			t.Errorf("%s replay not deterministic:\n--- first ---\n%s\n--- second ---\n%s", format, a, b)
		}
		if a == "" {
			t.Errorf("%s replay produced no output", format)
		}
	}
}

// TestObsmonFormats: json parses with the incident present; csv has the
// label column and one incident row.
func TestObsmonFormats(t *testing.T) {
	tl := fixtureTimeline(t)
	rules := writeRules(t, "closing.json", closingRules)

	_, jsonOut, _ := runTool(t, "-rules", rules, "-timeline", tl, "-format", "json", "-fail-on", "none")
	var doc struct {
		Reports []*monitor.Report `json:"reports"`
	}
	if err := json.Unmarshal([]byte(jsonOut), &doc); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, jsonOut)
	}
	if len(doc.Reports) != 1 || len(doc.Reports[0].Incidents) != 1 {
		t.Fatalf("json reports = %+v, want 1 report with 1 incident", doc.Reports)
	}
	if doc.Reports[0].Incidents[0].Open {
		t.Fatalf("incident should have closed on recovery: %+v", doc.Reports[0].Incidents[0])
	}

	_, csvOut, _ := runTool(t, "-rules", rules, "-timeline", tl, "-format", "csv", "-fail-on", "none")
	recs, err := csv.NewReader(strings.NewReader(csvOut)).ReadAll()
	if err != nil {
		t.Fatalf("csv output does not parse: %v\n%s", err, csvOut)
	}
	if len(recs) != 2 || recs[0][0] != "label" || recs[1][1] != "floor" {
		t.Fatalf("csv shape = %+v, want header + one floor incident row", recs)
	}
}

// TestObsmonOutputFile: -o writes the report to a file.
func TestObsmonOutputFile(t *testing.T) {
	tl := fixtureTimeline(t)
	rules := writeRules(t, "closing.json", closingRules)
	dest := filepath.Join(t.TempDir(), "report.txt")
	code, out, errOut := runTool(t, "-rules", rules, "-timeline", tl, "-fail-on", "none", "-o", dest)
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errOut)
	}
	if out != "" {
		t.Fatalf("stdout should be empty with -o: %q", out)
	}
	data, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# slo report:") {
		t.Fatalf("report file missing header:\n%s", data)
	}
}

// TestObsmonCanonicalRules: the built-in rule set loads by name and
// replays over a recorded timeline.
func TestObsmonCanonicalRules(t *testing.T) {
	code, out, errOut := runTool(t, "-rules", "canonical", "-timeline", fixtureTimeline(t), "-fail-on", "none")
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errOut)
	}
	if !strings.Contains(out, "delivery-floor") {
		t.Fatalf("canonical report missing delivery-floor:\n%s", out)
	}
}

// TestObsmonErrors covers flag and input validation exits.
func TestObsmonErrors(t *testing.T) {
	tl := fixtureTimeline(t)
	rules := writeRules(t, "closing.json", closingRules)
	bad := writeRules(t, "bad.json", `{"rules": [{"name": "x", "kind": "nosuch"}]}`)
	yaml := writeRules(t, "rules.yaml", "rules:\n  - name: x\n    kind: rate\n    min: 1\n")
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no-input", []string{"-rules", rules}, 2},
		{"bad-format", []string{"-rules", rules, "-timeline", tl, "-format", "xml"}, 2},
		{"bad-fail-on", []string{"-rules", rules, "-timeline", tl, "-fail-on", "sometimes"}, 2},
		{"bad-rules", []string{"-rules", bad, "-timeline", tl}, 1},
		{"yaml-rules", []string{"-rules", yaml, "-timeline", tl}, 1},
		{"missing-rules", []string{"-rules", "/nonexistent/rules.json", "-timeline", tl}, 1},
		{"missing-timeline", []string{"-rules", rules, "-timeline", "/nonexistent/tl.json"}, 1},
		// Live runs moved to msgbench -scenario -slo; their flags are gone.
		{"scenario-removed", []string{"-rules", rules, "-timeline", tl, "-scenario", "single"}, 2},
		{"words-removed", []string{"-rules", rules, "-timeline", tl, "-words", "64"}, 2},
		{"interval-removed", []string{"-rules", rules, "-timeline", tl, "-interval", "8"}, 2},
	}
	for _, tc := range cases {
		code, _, errOut := runTool(t, tc.args...)
		if code != tc.want {
			t.Errorf("%s: exit = %d, want %d; stderr:\n%s", tc.name, code, tc.want, errOut)
		}
	}
}
