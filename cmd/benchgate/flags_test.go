package main

import (
	"strings"
	"testing"
)

// TestFlagValidationTable: the flags of the removed host-timing gate are
// gone, not kept as accepted no-ops; each is a usage error.
func TestFlagValidationTable(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"zero parallel", []string{"-record", "out.json", "-parallel", "0"}},
		{"negative parallel", []string{"-record", "out.json", "-parallel", "-2"}},
		{"n", []string{"-record", "out.json", "-n", "3"}},
		{"words", []string{"-record", "out.json", "-words", "64"}},
		{"netload-cycles", []string{"-record", "out.json", "-netload-cycles", "1000"}},
		{"threshold", []string{"-compare", "-threshold", "0.1", "a.json", "b.json"}},
		{"alpha", []string{"-compare", "-alpha", "0.05", "a.json", "b.json"}},
		{"sim-only", []string{"-compare", "-sim-only", "a.json", "b.json"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut strings.Builder
			if code := run(c.args, &out, &errOut); code != 2 {
				t.Fatalf("exited %d, want 2", code)
			}
			if !strings.Contains(errOut.String(), "flag provided but not defined") {
				t.Fatalf("unclear message: %q", errOut.String())
			}
		})
	}
}
