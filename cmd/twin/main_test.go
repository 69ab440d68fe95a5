package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func runTwin(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestPredictNetText(t *testing.T) {
	code, out, errb := runTwin(t)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, want := range []string{"fattree(4,2)/deterministic/vc1", "mean latency:", "calibrated:     true"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPredictNetJSON(t *testing.T) {
	code, out, errb := runTwin(t, "-json", "-topology", "mesh", "-mode", "cr", "-load", "0.15")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, want := range []string{`"point": "mesh(4,4)/cr/vc1"`, `"mean_latency_cycles"`, `"calibrated": true`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q:\n%s", want, out)
		}
	}
}

func TestPredictProto(t *testing.T) {
	code, out, errb := runTwin(t, "-proto", "cm5-stream", "-words", "256")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "total instructions: 7501") {
		t.Errorf("unexpected proto prediction:\n%s", out)
	}
}

func TestPredictErrors(t *testing.T) {
	cases := [][]string{
		{"-topology", "torus"},
		{"-mode", "warp"},
		{"-load", "0"},
		{"-load", "1.5"},
		{"-cycles", "0"},
		{"-proto", "warp"},
	}
	for _, args := range cases {
		if code, _, errb := runTwin(t, args...); code == 0 || errb == "" {
			t.Errorf("args %v: exit %d, stderr %q — want failure with message", args, code, errb)
		}
	}
}

// TestFlagValidation: explicitly-set non-positive pool sizes error out
// instead of silently falling back to auto-sizing, and the removed -shards
// flag is rejected as undefined.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // "" = must succeed
	}{
		{"default auto", nil, ""},
		{"explicit workers", []string{"-parallel", "2"}, ""},
		{"zero parallel", []string{"-parallel", "0"}, "must be a positive count"},
		{"negative parallel", []string{"-parallel", "-1"}, "must be a positive count"},
		{"shards removed", []string{"-shards", "2"}, "flag provided but not defined: -shards"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, errb := runTwin(t, c.args...)
			if c.want == "" && code != 0 {
				t.Fatalf("exit %d: %s", code, errb)
			}
			if c.want != "" {
				if code == 0 {
					t.Fatalf("accepted %v", c.args)
				}
				if !strings.Contains(errb, c.want) {
					t.Fatalf("unclear message: %q", errb)
				}
			}
		})
	}
}

func TestModesExclusive(t *testing.T) {
	code, _, errb := runTwin(t, "-calibrate", "-fit")
	if code == 0 || !strings.Contains(errb, "mutually exclusive") {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
}

func TestCalibrateRecordCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("two full calibration sweeps")
	}
	baseline := filepath.Join(t.TempDir(), "twin.json")
	code, out, errb := runTwin(t, "-record", baseline)
	if code != 0 {
		t.Fatalf("record: exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "recorded calibration baseline") {
		t.Errorf("record output: %s", out)
	}
	code, out, errb = runTwin(t, "-compare", baseline)
	if code != 0 {
		t.Fatalf("compare: exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "PASS") {
		t.Errorf("compare output: %s", out)
	}
	// The worker accounting lives on stderr so that stdout stays
	// byte-identical across -parallel counts.
	if !strings.Contains(errb, "# workers:") {
		t.Errorf("stderr missing worker accounting: %q", errb)
	}
}

func TestCompareMissingBaseline(t *testing.T) {
	code, _, errb := runTwin(t, "-compare", filepath.Join(t.TempDir(), "absent.json"))
	if code == 0 || errb == "" {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
}

func TestFit(t *testing.T) {
	if testing.Short() {
		t.Skip("re-simulates the knot grid")
	}
	code, out, errb := runTwin(t, "-fit")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.HasPrefix(out, "var calibratedRegimes = []calibratedRegime{") {
		t.Errorf("fit output header wrong:\n%.200s", out)
	}
}
