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
