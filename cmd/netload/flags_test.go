package main

import (
	"strings"
	"testing"
)

// TestFlagValidationTable: explicitly-set non-positive pool sizes error out
// with a clear message instead of silently falling back to auto-sizing, and
// the removed -shards flag is rejected as undefined.
func TestFlagValidationTable(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero parallel", []string{"-parallel", "0"}, "must be a positive count"},
		{"negative parallel", []string{"-parallel", "-2"}, "must be a positive count"},
		{"shards removed", []string{"-shards", "2"}, "flag provided but not defined: -shards"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut strings.Builder
			if code := run(c.args, &out, &errOut); code == 0 {
				t.Fatalf("accepted %v", c.args)
			}
			if !strings.Contains(errOut.String(), c.want) {
				t.Fatalf("unclear message: %q", errOut.String())
			}
		})
	}
}

// TestRunTwinColumns: -twin appends the analytic twin's predicted latency
// and error per mode, and at knot loads on the calibration configuration
// the prediction is exact.
func TestRunTwinColumns(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-twin", "-loads", "0.05", "-cycles", "800"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"deterministic twin-lat", "adaptive twin-err%", "cr twin-lat"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	// Load 0.05 is a committed knot and this is the calibration config, so
	// every twin-err% value on the row must render as exactly zero.
	if strings.Count(s, "0.0000") < 3 {
		t.Errorf("knot-load twin errors not zero:\n%s", s)
	}
	var csvOut strings.Builder
	if code := run([]string{"-twin", "-csv", "-loads", "0.05", "-cycles", "800"}, &csvOut, &errOut); code != 0 {
		t.Fatalf("csv exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(csvOut.String(), "deterministic twin-err%") {
		t.Errorf("CSV missing twin column:\n%s", csvOut.String())
	}
}
