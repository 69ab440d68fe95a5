package main

import (
	"strings"
	"testing"
)

// TestFlagValidationTable: explicitly-set non-positive pool sizes error out
// with a clear message instead of silently falling back to auto-sizing, the
// removed -shards flag is rejected as undefined, and a zero timeline window
// (which could never close) is a usage error, exit 2. So is every flag a
// run would ignore: the paper-experiment flags under -scenario, and -words
// without it.
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
		{"scenario with table", []string{"-scenario", "all", "-table", "1"}, 2, "-scenario cannot be combined with -table"},
		{"scenario with figure", []string{"-scenario", "all", "-figure", "6"}, 2, "-scenario cannot be combined with -figure"},
		{"scenario with ablations", []string{"-scenario", "all", "-ablations"}, 2, "-scenario cannot be combined with -ablations"},
		{"scenario with json", []string{"-scenario", "all", "-json"}, 2, "-scenario cannot be combined with -json"},
		{"scenario with quiet", []string{"-scenario", "all", "-quiet"}, 2, "-scenario cannot be combined with -quiet"},
		{"scenario with parallel", []string{"-scenario", "all", "-parallel", "2"}, 2, "-scenario cannot be combined with -parallel"},
		{"words without scenario", []string{"-words", "32"}, 2, "-words needs -scenario"},
		{"zero words", []string{"-scenario", "cm5-finite", "-words", "0"}, 2, "-words must be positive"},
		{"unknown scenario", []string{"-scenario", "nope"}, 2, `unknown scenario "nope"`},
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
