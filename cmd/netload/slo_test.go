package main

import (
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

// tightSLO fires on every point: no link moves a million flits per kcycle.
const tightSLO = `rules:
  - name: impossible-link-floor
    kind: rate
    severity: page
    match:
      prefix: flitnet_link_flits_total
    min: 1000000
`

// looseSLO never fires (a link moves at most 1000 flits per kcycle).
const looseSLO = `{"rules": [{"name": "roomy-link-ceiling", "kind": "rate",
  "match": {"prefix": "flitnet_link_flits_total"}, "max": 1000000}]}`

// runSLO runs a small sweep with -slo and returns the exit code and the
// alert report contents.
func runSLO(t *testing.T, rulesPath string, extra ...string) (int, string) {
	t.Helper()
	sloPath := filepath.Join(t.TempDir(), "slo.txt")
	var out, errOut strings.Builder
	args := append([]string{"-loads", "0.05,0.2", "-cycles", "300", "-k", "2", "-levels", "2",
		"-slo", rulesPath, "-slo-out", sloPath}, extra...)
	code := run(args, &out, &errOut)
	b, err := os.ReadFile(sloPath)
	if err != nil {
		t.Fatalf("slo report not written (exit %d): %v\nstderr:\n%s", code, err, errOut.String())
	}
	return code, string(b)
}

// TestObsNetloadSLOViolation: a firing rule exits 3 and the report (still
// written) names every point.
func TestObsNetloadSLOViolation(t *testing.T) {
	code, rep := runSLO(t, sloRules(t, "tight.yaml", tightSLO))
	if code != 3 {
		t.Fatalf("exit = %d, want 3\n%s", code, rep)
	}
	if !strings.Contains(rep, "impossible-link-floor") || !strings.Contains(rep, "FIRING") {
		t.Fatalf("report missing firing rule:\n%s", rep)
	}
	for _, label := range []string{"deterministic/load=50", "adaptive/load=200", "cr/load=200"} {
		if !strings.Contains(rep, "# slo report: "+label) {
			t.Errorf("report missing point %s:\n%s", label, rep)
		}
	}
}

// TestObsNetloadSLOCompliant: a loose rule exits 0.
func TestObsNetloadSLOCompliant(t *testing.T) {
	code, rep := runSLO(t, sloRules(t, "loose.json", looseSLO))
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, rep)
	}
	if !strings.Contains(rep, "0 incident(s), ok") {
		t.Fatalf("report missing compliant rule:\n%s", rep)
	}
}

// TestObsNetloadSLODeterminism: the alert report is byte-identical across
// worker counts and the dense reference engine — the alert
// determinism contract CI gates with the canonical rules.
func TestObsNetloadSLODeterminism(t *testing.T) {
	rules := sloRules(t, "tight.yaml", tightSLO)
	_, base := runSLO(t, rules, "-parallel", "1")
	for _, extra := range [][]string{
		{"-parallel", "4"},
		{"-dense"},
	} {
		_, got := runSLO(t, rules, extra...)
		if got != base {
			t.Errorf("%v: alert report differs from serial:\n--- serial ---\n%s\n--- %v ---\n%s",
				extra, base, extra, got)
		}
	}
}

// TestObsNetloadSLOBadRules: a bad rules file fails before the sweep.
func TestObsNetloadSLOBadRules(t *testing.T) {
	bad := sloRules(t, "bad.yaml", "rules:\n  - name: x\n    kind: nosuch\n")
	var out, errOut strings.Builder
	if code := run([]string{"-slo", bad}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "unknown kind") {
		t.Fatalf("stderr missing rules error:\n%s", errOut.String())
	}
}
