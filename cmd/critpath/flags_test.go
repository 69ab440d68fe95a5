package main

import (
	"strings"
	"testing"
)

// TestFlagValidationTable: explicitly-set non-positive pool sizes error out
// with a clear message instead of silently falling back to auto-sizing, the
// removed -shards flag is rejected as undefined, and a zero timeline window
// (which could never close) is a usage error, exit 2.
func TestFlagValidationTable(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string
	}{
		{"zero parallel", []string{"-parallel", "0"}, 1, "must be a positive count"},
		{"negative parallel", []string{"-parallel", "-2"}, 1, "must be a positive count"},
		{"shards removed", []string{"-shards", "2"}, 2, "flag provided but not defined: -shards"},
		{"zero timeline interval", []string{"-timeline-interval", "0"}, 2, "-timeline-interval must be >= 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut strings.Builder
			if code := run(c.args, &out, &errOut); code != c.code {
				t.Fatalf("%v: exit %d, want %d", c.args, code, c.code)
			}
			if !strings.Contains(errOut.String(), c.want) {
				t.Fatalf("unclear message: %q", errOut.String())
			}
		})
	}
}
