package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"msglayer/internal/experiments"
	"msglayer/internal/obs"
	"msglayer/internal/obs/diff"
)

// metricsFile runs one canonical scenario and writes its metrics export.
func metricsFile(t *testing.T, dir, name, scenario string, words int) string {
	t.Helper()
	hub := obs.NewHub()
	experiments.SetObserver(hub)
	defer experiments.SetObserver(nil)
	if _, err := experiments.RunCanonical(scenario, words); err != nil {
		t.Fatal(err)
	}
	doc, err := hub.Metrics.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestObsdiffSelfDiffIsZero(t *testing.T) {
	dir := t.TempDir()
	a := metricsFile(t, dir, "a.json", "cm5-finite", 64)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-require-zero", a, a}, &stdout, &stderr); code != 0 {
		t.Fatalf("self-diff exit = %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "identical: all") {
		t.Fatalf("self-diff output missing zero statement:\n%s", stdout.String())
	}
}

func TestObsdiffAttributesAndGates(t *testing.T) {
	dir := t.TempDir()
	a := metricsFile(t, dir, "a.json", "cm5-finite", 64)
	b := metricsFile(t, dir, "b.json", "cr-finite", 64)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-label-a", "cm5", "-label-b", "cr", a, b}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr.String())
	}
	text := stdout.String()
	for _, want := range []string{"A=cm5 B=cr", "== counters (events) ==", "top movers"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text output missing %q:\n%s", want, text)
		}
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-require-zero", a, b}, &stdout, &stderr); code != 1 {
		t.Fatalf("-require-zero on differing artifacts exit = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "differ") {
		t.Fatalf("gate failure not explained:\n%s", stderr.String())
	}
}

func TestObsdiffFormatsAndDeterminism(t *testing.T) {
	dir := t.TempDir()
	a := metricsFile(t, dir, "a.json", "cm5-stream", 64)
	b := metricsFile(t, dir, "b.json", "cr-stream", 64)

	render := func(format string) string {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-format", format, a, b}, &stdout, &stderr); code != 0 {
			t.Fatalf("-format %s exit = %d, stderr:\n%s", format, code, stderr.String())
		}
		return stdout.String()
	}
	for _, format := range []string{"text", "json", "csv"} {
		if render(format) != render(format) {
			t.Fatalf("-format %s output is not byte-identical across invocations", format)
		}
	}

	var report diff.Report
	if err := json.Unmarshal([]byte(render("json")), &report); err != nil {
		t.Fatalf("json output does not parse: %v", err)
	}
	if report.Kind != "metrics" || len(report.Sections) == 0 {
		t.Fatalf("json report = kind %q with %d sections", report.Kind, len(report.Sections))
	}
	if !strings.HasPrefix(render("csv"), "kind,section,unit,key,a,b,delta,permille,only_in\n") {
		t.Fatal("csv output missing header row")
	}

	out := filepath.Join(dir, "report.txt")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-o", out, a, b}, &stdout, &stderr); code != 0 {
		t.Fatalf("-o exit = %d, stderr:\n%s", code, stderr.String())
	}
	if data, err := os.ReadFile(out); err != nil || !strings.Contains(string(data), "obsdiff metrics:") {
		t.Fatalf("file output: err=%v", err)
	}
}

func TestObsdiffUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"one.json"}, &stdout, &stderr); code != 2 {
		t.Fatalf("single path exit = %d, want 2", code)
	}
	stderr.Reset()
	dir := t.TempDir()
	a := metricsFile(t, dir, "a.json", "single", 64)
	if code := run([]string{"-format", "xml", a, a}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad format exit = %d, want 2", code)
	}
	if code := run([]string{filepath.Join(dir, "missing.json"), a}, &stdout, &stderr); code != 1 {
		t.Fatal("missing file did not fail")
	}
}

// TestObsdiffRejectsUnbalancedTimeline: a timeline whose window breakdown
// does not sum to the window's events fails at load, naming the window,
// rather than loading and then failing the diff's reconciliation.
func TestObsdiffRejectsUnbalancedTimeline(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	doc := `{"schema":1,"interval":100,"windows":[{"index":0,"start":0,"end":100,"events":5,"breakdown":[{"role":"source","axis":"base","category":"work","events":3}]}],"digest":"0000000000000000"}`
	if err := os.WriteFile(bad, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{bad, bad}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "windows[0] (index 0): breakdown events sum to 3, window events 5") {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
}
