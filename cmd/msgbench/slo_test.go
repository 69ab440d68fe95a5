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
	rules := sloRules(t, "tight.json", `{"rules": [{"name": "impossible-floor", "kind": "rate", "severity": "page",
  "match": {"prefix": "net_delivered_total"}, "min": 1000000}]}`)
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
