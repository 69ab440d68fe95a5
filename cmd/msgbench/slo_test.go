package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sloRules writes a rules file into a temp dir.
func sloRules(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestObsMsgbenchSLOCompliant: the canonical rules hold on Figure 6 and
// the run exits 0 with the report written.
func TestObsMsgbenchSLOCompliant(t *testing.T) {
	sloPath := filepath.Join(t.TempDir(), "slo.txt")
	var out, errOut strings.Builder
	code := run([]string{"-figure", "6", "-quiet", "-slo", "canonical", "-slo-out", sloPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errOut.String())
	}
	rep, err := os.ReadFile(sloPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# slo report: msgbench", "delivery-floor", "0 incident(s), ok"} {
		if !strings.Contains(string(rep), want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestObsMsgbenchSLOViolation: an impossible floor fires live and the run
// exits 3, after the report is written.
func TestObsMsgbenchSLOViolation(t *testing.T) {
	rules := sloRules(t, "tight.json", tightRules)
	sloPath := filepath.Join(t.TempDir(), "slo.txt")
	var out, errOut strings.Builder
	code := run([]string{"-figure", "6", "-quiet", "-slo", rules, "-slo-out", sloPath}, &out, &errOut)
	if code != 3 {
		t.Fatalf("exit = %d, want 3; stderr:\n%s", code, errOut.String())
	}
	rep, err := os.ReadFile(sloPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rep), "impossible-floor") || !strings.Contains(string(rep), "incident 0:") {
		t.Fatalf("report missing the fired incident:\n%s", rep)
	}
	if !strings.Contains(errOut.String(), "SLO violated") {
		t.Fatalf("stderr missing violation notice:\n%s", errOut.String())
	}
}

// TestObsMsgbenchUntickedRun: Table 1's single-packet delivery never
// ticks the round clock, yet -timeline-out and -slo each close exactly
// one reconciled window and exit 0.
func TestObsMsgbenchUntickedRun(t *testing.T) {
	dir := t.TempDir()
	tlPath := filepath.Join(dir, "tl.json")
	var out, errOut strings.Builder
	if code := run([]string{"-table", "1", "-quiet", "-timeline-out", tlPath}, &out, &errOut); code != 0 {
		t.Fatalf("-timeline-out: exit %d; stderr:\n%s", code, errOut.String())
	}
	body, err := os.ReadFile(tlPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Windows []json.RawMessage `json:"windows"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Windows) != 1 {
		t.Errorf("timeline has %d windows, want 1", len(doc.Windows))
	}

	sloPath := filepath.Join(dir, "slo.txt")
	if code := run([]string{"-table", "1", "-quiet", "-slo", "canonical", "-slo-out", sloPath}, &out, &errOut); code != 0 {
		t.Fatalf("-slo canonical: exit %d; stderr:\n%s", code, errOut.String())
	}
	rep, err := os.ReadFile(sloPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rep), "windows: 1 ") {
		t.Errorf("SLO report did not evaluate one window:\n%s", rep)
	}
}

// TestObsMsgbenchSLODeterminism: the live report is identical across
// repeated runs (the hub round clock and windows are deterministic).
func TestObsMsgbenchSLODeterminism(t *testing.T) {
	render := func() string {
		sloPath := filepath.Join(t.TempDir(), "slo.txt")
		var out, errOut strings.Builder
		if code := run([]string{"-figure", "6", "-quiet", "-slo", "canonical", "-slo-out", sloPath}, &out, &errOut); code != 0 {
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
		b, err := os.ReadFile(sloPath)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("SLO report not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// tightRules fires on any run: nothing sustains a million deliveries per
// kcycle.
const tightRules = `{"rules": [{"name": "impossible-floor", "kind": "rate", "severity": "page",
  "match": {"prefix": "net_delivered_total"}, "min": 1000000}]}`

// TestObsMsgbenchScenarioSLOViolation: a rule that fires on a scenario run
// exits 3, and the report on stdout is labelled with the scenario.
func TestObsMsgbenchScenarioSLOViolation(t *testing.T) {
	rules := sloRules(t, "tight.json", tightRules)
	var out, errOut strings.Builder
	code := run([]string{"-scenario", "cm5-finite", "-slo", rules, "-timeline-interval", "8"}, &out, &errOut)
	if code != 3 {
		t.Fatalf("exit = %d, want 3; stderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"# slo report: cm5-finite", "rule impossible-floor", "FIRING"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(errOut.String(), "SLO violated") {
		t.Fatalf("stderr missing violation notice:\n%s", errOut.String())
	}
}

// TestObsMsgbenchScenarioSLOCompliant: a loose rule holds on a scenario
// run, which exits 0.
func TestObsMsgbenchScenarioSLOCompliant(t *testing.T) {
	rules := sloRules(t, "loose.json", `{"rules": [{"name": "roomy-ceiling", "kind": "rate",
  "match": {"prefix": "net_delivered_total"}, "max": 1000000000}]}`)
	var out, errOut strings.Builder
	if code := run([]string{"-scenario", "cm5-finite", "-slo", rules, "-timeline-interval", "8"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "0 incident(s), ok") {
		t.Fatalf("report missing compliant rule:\n%s", out.String())
	}
}

// TestObsMsgbenchScenarioSLOCanonical: the built-in rule set holds on
// every canonical scenario.
func TestObsMsgbenchScenarioSLOCanonical(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-scenario", "all", "-slo", "canonical", "-timeline-interval", "8"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"# slo report: all", "delivery-floor"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("canonical report missing %q:\n%s", want, out.String())
		}
	}
}

// TestObsMsgbenchScenarioSLOUnticked: the single-packet scenario never
// ticks the round clock, yet the live monitor evaluates its one closing
// window.
func TestObsMsgbenchScenarioSLOUnticked(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-scenario", "single", "-slo", "canonical", "-timeline-interval", "8"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "windows: 1 ") {
		t.Fatalf("report did not evaluate one window:\n%s", out.String())
	}
}
