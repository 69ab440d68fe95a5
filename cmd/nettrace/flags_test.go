package main

import (
	"strings"
	"testing"
)

// TestFlagValidationTable: usage errors exit 2 with a clear message — the
// removed -shards flag is undefined, and a zero timeline window can never
// close.
func TestFlagValidationTable(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string
	}{
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
