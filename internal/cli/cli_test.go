package cli

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The rest of the package is exercised through the commands' own tests:
// the usage checks by every command's flag table, the session by the
// msgbench unticked-run tests, the metrics writer by the msgbench -scenario
// tests, and the report writers by the netload and obsmon SLO tests.

// TestWriteToRemovesPartialFile: when rendering into a file fails midway,
// WriteTo removes the truncated artifact.
func TestWriteToRemovesPartialFile(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "trace.json")
	renderErr := errors.New("render broke midway")
	err := WriteTo(dest, io.Discard, func(w io.Writer) error {
		if _, werr := w.Write([]byte(`{"traceEvents":[`)); werr != nil {
			return werr
		}
		return renderErr
	})
	if !errors.Is(err, renderErr) {
		t.Fatalf("WriteTo error = %v, want wrapped render error", err)
	}
	if _, statErr := os.Stat(dest); !errors.Is(statErr, os.ErrNotExist) {
		t.Errorf("partial file left behind at %s (stat err: %v)", dest, statErr)
	}
}

func TestStartCPUWritesProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	stop, err := startCPU(path)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to sample.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() == 0 {
		t.Fatalf("CPU profile missing or empty: %v", err)
	}
}

func TestStartCPUUnwritablePathFails(t *testing.T) {
	if _, err := startCPU(filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.out")); err == nil {
		t.Fatal("expected an error for an unwritable path")
	}
}

func TestWriteHeapWritesProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.out")
	if err := writeHeap(path); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() == 0 {
		t.Fatalf("heap profile missing or empty: %v", err)
	}
}

func TestWriteHeapUnwritablePathFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "mem.out")
	if err := writeHeap(path); err == nil {
		t.Fatal("expected an error for an unwritable path")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("partial heap profile left behind")
	}
}
