package main

import (
	"strings"
	"testing"
)

// TestFlagValidationTable: explicitly-set non-positive pool sizes error out
// with a clear message instead of silently falling back to auto-sizing.
func TestFlagValidationTable(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"zero parallel", []string{"-parallel", "0"}},
		{"negative parallel", []string{"-parallel", "-2"}},
		{"zero shards", []string{"-shards", "0"}},
		{"negative shards", []string{"-shards", "-1"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut strings.Builder
			if code := run(c.args, &out, &errOut); code == 0 {
				t.Fatal("accepted non-positive pool size")
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
	if code := run([]string{"-sizes", "4", "-words", "16"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "# shards: 1") {
		t.Errorf("stderr missing # shards line:\n%s", errOut.String())
	}
}

// TestTwinColumn: -twin runs each point on the real simulator and the
// analytic prediction matches it exactly.
func TestTwinColumn(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-twin", "-sizes", "4,16", "-words", "64"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"sim total", "twin-err%"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	// Data rows: n, then (total, overhead, sim total, twin-err%) per
	// protocol; every twin-err% field must be exactly zero.
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		if len(f) != 9 || !strings.Contains(f[0], "") {
			continue
		}
		if _, err := parseSizes(f[0]); err != nil {
			continue
		}
		for _, fi := range []int{4, 8} {
			if f[fi] != "0.0000" {
				t.Errorf("nonzero twin error %s in row: %s", f[fi], line)
			}
		}
	}
}

// TestTwinRequiresHalfOOO: the simulator's stream substrate reorders
// exactly half the packets; other -ooo values cannot be simulated.
func TestTwinRequiresHalfOOO(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-twin", "-ooo", "0.25"}, &out, &errOut); code == 0 {
		t.Fatal("accepted -twin with -ooo 0.25")
	}
	if !strings.Contains(errOut.String(), "-ooo 0.5") {
		t.Fatalf("unclear message: %q", errOut.String())
	}
}
