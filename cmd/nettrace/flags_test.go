package main

import (
	"strings"
	"testing"
)

// TestFlagValidationTable: explicitly-set non-positive shard counts error
// out with a clear message instead of being silently ignored.
func TestFlagValidationTable(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"zero shards", []string{"-shards", "0"}},
		{"negative shards", []string{"-shards", "-4"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut strings.Builder
			if code := run(c.args, &out, &errOut); code == 0 {
				t.Fatal("accepted non-positive shard count")
			}
			if !strings.Contains(errOut.String(), "must be a positive count") {
				t.Fatalf("unclear message: %q", errOut.String())
			}
		})
	}
}

// TestShardsLine: -shards is accepted for uniformity only, and stderr
// says so the way netload reports its effective shard count.
func TestShardsLine(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-figure", "4", "-packets", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "# shards: 1") {
		t.Errorf("stderr missing # shards line:\n%s", errOut.String())
	}
}
