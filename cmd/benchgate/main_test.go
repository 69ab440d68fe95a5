package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"msglayer/internal/obs/diff"
	"msglayer/internal/perfreg"
)

// record runs the tool in record mode without the allocation benchmarks
// (internal/perfreg smoke-tests those).
func record(path string) error {
	var stdout, stderr bytes.Buffer
	args := []string{"-record", path, "-label", "t", "-no-benches"}
	if code := run(args, &stdout, &stderr); code != 0 {
		return fmt.Errorf("benchgate %v exited %d: %s", args, code, stderr.String())
	}
	return nil
}

// shared is one recording the tests that only read a snapshot share.
var shared = sync.OnceValues(func() ([]byte, error) {
	dir, err := os.MkdirTemp("", "benchgate-test")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "shared.json")
	if err := record(path); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
})

// recordShared writes the shared recording to path.
func recordShared(t *testing.T, path string) {
	t.Helper()
	data, err := shared()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestBenchgateIdenticalSeedSnapshotsPass(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	// Two independent recordings of the same seeds and sizes.
	for _, path := range []string{a, b} {
		if err := record(path); err != nil {
			t.Fatal(err)
		}
	}

	var stdout, stderr bytes.Buffer
	// Sim metrics must be identical across recordings.
	code := run([]string{"-compare", a, b}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("identical-seed compare exited %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "verdict: PASS") {
		t.Fatalf("no PASS verdict:\n%s", out)
	}
	if strings.Contains(out, "DRIFT") {
		t.Fatalf("identical-seed snapshots drifted:\n%s", out)
	}
}

func TestBenchgateInjectedRegressionFails(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	recordShared(t, a)

	snap, err := perfreg.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	// Inject a +20% instruction-cost regression into every scenario's
	// totals.
	for i := range snap.Scenarios {
		for k, v := range snap.Scenarios[i].Sim {
			if strings.HasSuffix(k, "/total") || strings.HasSuffix(k, "flit_moves") {
				snap.Scenarios[i].Sim[k] = v * 12 / 10
			}
		}
	}
	bad := filepath.Join(dir, "bad.json")
	if err := snap.WriteFile(bad); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{"-compare", a, bad}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("+20%% regression passed the gate:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "verdict: FAIL") {
		t.Fatalf("no FAIL verdict:\n%s", stdout.String())
	}
}

// injectRegression shifts one instruction cell (and the recorded total,
// keeping the waterfall complete) in every scenario of a snapshot copy.
func injectRegression(t *testing.T, from, to string) {
	t.Helper()
	snap, err := perfreg.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap.Scenarios {
		sim := snap.Scenarios[i].Sim
		for k := range sim {
			if strings.HasPrefix(k, "instr/") && k != "instr/total" {
				sim[k] += 100
				sim["instr/total"] += 100
				break
			}
		}
	}
	if err := snap.WriteFile(to); err != nil {
		t.Fatal(err)
	}
}

func TestBenchgateFailureIncludesAttribution(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	recordShared(t, a)
	bad := filepath.Join(dir, "bad.json")
	injectRegression(t, a, bad)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", a, bad}, &stdout, &stderr); code != 1 {
		t.Fatalf("injected regression exited %d, want 1:\n%s%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"verdict: FAIL", "-- differential attribution (obsdiff) --", "top movers", "instr/total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("failure output missing %q:\n%s", want, out)
		}
	}

	// A passing compare prints no attribution section.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-compare", a, a}, &stdout, &stderr); code != 0 {
		t.Fatalf("self-compare exited %d:\n%s", code, stderr.String())
	}
	if strings.Contains(stdout.String(), "differential attribution") {
		t.Fatalf("passing compare printed an attribution section:\n%s", stdout.String())
	}
}

func TestBenchgateCompareJSON(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	recordShared(t, a)
	bad := filepath.Join(dir, "bad.json")
	injectRegression(t, a, bad)

	type result struct {
		Old struct {
			Path  string `json:"path"`
			Label string `json:"label"`
		} `json:"old"`
		Pass        bool            `json:"pass"`
		SimChecked  int             `json:"sim_checked"`
		SimEqual    int             `json:"sim_equal"`
		Failing     []perfreg.Delta `json:"failing"`
		Attribution *diff.Report    `json:"attribution"`
	}

	runJSON := func(oldPath, newPath string, wantCode int) (result, string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-compare", "-json", oldPath, newPath}, &stdout, &stderr); code != wantCode {
			t.Fatalf("-json compare exited %d, want %d:\n%s", code, wantCode, stderr.String())
		}
		var res result
		if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
			t.Fatalf("-json output does not parse: %v\n%s", err, stdout.String())
		}
		return res, stdout.String()
	}

	pass, _ := runJSON(a, a, 0)
	if !pass.Pass || len(pass.Failing) != 0 || pass.Attribution != nil {
		t.Fatalf("self-compare JSON = pass=%v failing=%d attribution=%v", pass.Pass, len(pass.Failing), pass.Attribution)
	}
	if pass.SimChecked == 0 || pass.SimChecked != pass.SimEqual {
		t.Fatalf("self-compare sim counts = %d/%d", pass.SimEqual, pass.SimChecked)
	}
	if pass.Old.Path != a || pass.Old.Label != "t" {
		t.Fatalf("old ref = %+v", pass.Old)
	}

	fail, out1 := runJSON(a, bad, 1)
	if fail.Pass || len(fail.Failing) == 0 {
		t.Fatalf("regression JSON = pass=%v failing=%d", fail.Pass, len(fail.Failing))
	}
	for _, d := range fail.Failing {
		if d.OK {
			t.Fatalf("failing list contains a passing delta: %+v", d)
		}
	}
	if fail.Attribution == nil || fail.Attribution.Kind != "perfreg" || len(fail.Attribution.Sections) == 0 {
		t.Fatalf("regression JSON carries no attribution: %+v", fail.Attribution)
	}
	if err := fail.Attribution.Reconcile(); err != nil {
		t.Fatalf("embedded attribution does not reconcile: %v", err)
	}

	// The machine-readable result is deterministic.
	if _, out2 := runJSON(a, bad, 1); out1 != out2 {
		t.Fatal("-json output is not byte-identical across invocations")
	}

	// -json without -compare is a usage error.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "-record", filepath.Join(dir, "x.json")}, &stdout, &stderr); code != 2 {
		t.Fatalf("-json with -record exited %d, want 2", code)
	}
}

func TestBenchgateUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-compare", "only-one.json"},
		{"-record", "x.json", "-compare"},
		{"-bogus"},
		{"-record", "x.json", "-no-benches", "stray.json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("benchgate %v exited %d, want 2", args, code)
		}
	}
	// Missing snapshot files are runtime errors, not usage errors.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", "/nonexistent/a.json", "/nonexistent/b.json"}, &stdout, &stderr); code != 1 {
		t.Errorf("missing files exited %d, want 1", code)
	}
}
