package main

import (
	"strings"
	"testing"
)

// TestFlagValidationTable: the removed -shards flag is rejected as
// undefined.
func TestFlagValidationTable(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
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
