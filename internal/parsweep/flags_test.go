package parsweep

import (
	"flag"
	"io"
	"testing"
)

func TestValidatePositiveFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
	}{
		{"unset defaults stay auto", nil, true},
		{"explicit positive", []string{"-parallel", "4", "-count", "2"}, true},
		{"explicit zero parallel", []string{"-parallel", "0"}, false},
		{"negative parallel", []string{"-parallel", "-3"}, false},
		{"explicit zero count", []string{"-count", "0"}, false},
		{"negative count", []string{"-count", "-1"}, false},
		{"unchecked flag ignored", []string{"-other", "-5"}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			fs.Int("parallel", 0, "")
			fs.Int("count", 0, "")
			fs.Int("other", 0, "")
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			err := ValidatePositiveFlags(fs, "parallel", "count")
			if c.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !c.ok && err == nil {
				t.Error("no error for non-positive value")
			}
		})
	}
}
