package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"msglayer/internal/cli"
)

func readFile(path string) ([]byte, error) { return os.ReadFile(path) }

// dump runs the tool and returns stdout, failing on nonzero exit.
func dump(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("obsdump %v exited %d: %s", args, code, stderr.String())
	}
	return stdout.String()
}

func TestObsDumpScenariosProduceMetrics(t *testing.T) {
	for _, scen := range []string{"cm5-finite", "cm5-stream", "cr-finite", "cr-stream"} {
		out := dump(t, "-scenario", scen, "-words", "32")
		if !strings.Contains(out, "msglayer_packets_sent_total") {
			t.Errorf("%s: no packet counters in metrics dump", scen)
		}
		if !strings.Contains(out, "msglayer_protocol_events_total") {
			t.Errorf("%s: no protocol event counters in metrics dump", scen)
		}
	}
}

func TestObsDumpChromeTraceValid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	dump(t, "-scenario", "all", "-words", "48", "-metrics-out", filepath.Join(t.TempDir(), "m.txt"), "-trace-out", path)

	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Cat   string `json:"cat"`
			Phase string `json:"ph"`
			TS    uint64 `json:"ts"`
			TID   int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	cats := map[string]bool{}
	spans := 0
	var lastTS uint64
	for _, e := range doc.TraceEvents {
		cats[e.Cat] = true
		if e.Phase == "X" {
			spans++
		}
		if e.Phase == "i" {
			if e.TS <= lastTS && lastTS != 0 {
				t.Fatalf("instant timestamps not monotonic at %s (%d after %d)", e.Name, e.TS, lastTS)
			}
			lastTS = e.TS
		}
	}
	// Every Feature axis must appear: base and buffer_mgmt from the finite
	// protocol, fault_tol from stream acks, in_order from stream sequencing.
	for _, axis := range []string{"base", "buffer_mgmt", "in_order", "fault_tol"} {
		if !cats[axis] {
			t.Errorf("feature axis %q absent from trace categories", axis)
		}
	}
	// The finite scenarios record a src and a dst transfer span each.
	if spans < 4 {
		t.Errorf("only %d duration spans recorded, want >= 4", spans)
	}
}

func TestObsDumpJSONMetricsValid(t *testing.T) {
	out := dump(t, "-scenario", "cm5-finite", "-metrics-format", "json")
	var doc struct {
		Metrics []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("JSON metrics do not parse: %v", err)
	}
	kinds := map[string]bool{}
	for _, m := range doc.Metrics {
		kinds[m.Kind] = true
	}
	for _, k := range []string{"counter", "gauge", "histogram"} {
		if !kinds[k] {
			t.Errorf("no %s series in JSON metrics", k)
		}
	}
}

// TestObsDumpDeterministic runs the full dump twice and requires
// byte-identical metrics and trace output — the CI determinism gate.
func TestObsDumpDeterministic(t *testing.T) {
	render := func() (string, string) {
		dir := t.TempDir()
		trace := filepath.Join(dir, "trace.json")
		metrics := dump(t, "-scenario", "all", "-words", "64", "-trace-out", trace)
		td, err := readFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		return metrics, string(td)
	}
	m1, t1 := render()
	m2, t2 := render()
	if m1 != m2 {
		t.Error("metrics dump differs between identical runs")
	}
	if t1 != t2 {
		t.Error("chrome trace differs between identical runs")
	}
}

func TestObsDumpBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown scenario exited %d, want 2", code)
	}
	if code := run([]string{"-metrics-format", "xml"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad format exited %d, want 2", code)
	}
	if code := run([]string{"-words", "0"}, &stdout, &stderr); code != 2 {
		t.Fatalf("zero words exited %d, want 2", code)
	}
}

// TestObsDumpUnwritableTraceOut: an unwritable -trace-out must be a non-zero
// exit with a clear error, not a silent success or a partial file. A
// directory path cannot be opened as a file even when tests run as root.
func TestObsDumpUnwritableTraceOut(t *testing.T) {
	dest := t.TempDir() // a directory is not a writable file path
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scenario", "cm5-finite", "-words", "16",
		"-metrics-out", filepath.Join(t.TempDir(), "m.txt"), "-trace-out", dest}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("unwritable -trace-out exited 0; stderr: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "writing "+dest) {
		t.Errorf("error does not name the destination: %s", stderr.String())
	}
}

// TestObsDumpFailedRenderRemovesPartialFile: when rendering into a file
// fails midway, cli.WriteTo must remove the truncated artifact.
func TestObsDumpFailedRenderRemovesPartialFile(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "trace.json")
	renderErr := errors.New("render broke midway")
	err := cli.WriteTo(dest, io.Discard, func(w io.Writer) error {
		if _, werr := w.Write([]byte(`{"traceEvents":[`)); werr != nil {
			return werr
		}
		return renderErr
	})
	if !errors.Is(err, renderErr) {
		t.Fatalf("cli.WriteTo error = %v, want wrapped render error", err)
	}
	if _, statErr := os.Stat(dest); !errors.Is(statErr, os.ErrNotExist) {
		t.Errorf("partial file left behind at %s (stat err: %v)", dest, statErr)
	}
}
