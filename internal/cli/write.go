// Package cli is the command-line tools' one observability wiring path.
// It owns the plumbing every command shares:
//
//   - partial-file-safe artifact writing (WriteTo), the metrics writer
//     (WriteMetrics) and pprof profiles,
//   - registration and validation of the shared observability flags
//     (Flags),
//   - the -serve lifecycle (Serve),
//   - the round-clock observer session: hub, timeline sampler, live SLO
//     monitor with blame, and reconciliation (Session),
//   - the multi-report SLO writer (WriteReports).
//
// A command keeps only what is its own: which flags it registers, what it
// runs, and what its reports say.
package cli

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"msglayer/internal/obs"
	"msglayer/internal/obs/monitor"
	"msglayer/internal/obs/timeline"
)

// create opens dest for writing and returns the function that finishes
// it: the file is closed, and a render or close error removes it rather
// than leaving a truncated artifact that looks valid. Every error names
// the file.
func create(dest string) (*os.File, func(err error) error, error) {
	f, err := os.Create(dest)
	if err != nil {
		return nil, nil, fmt.Errorf("writing %s: %w", dest, err)
	}
	return f, func(err error) error {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(dest)
			return fmt.Errorf("writing %s: %w", dest, err)
		}
		return nil
	}, nil
}

// WriteTo renders into the file dest, or into stdout for "-". A failed
// render or close removes the file.
func WriteTo(dest string, stdout io.Writer, render func(io.Writer) error) error {
	if dest == "-" {
		return render(stdout)
	}
	f, finish, err := create(dest)
	if err != nil {
		return err
	}
	return finish(render(f))
}

// Format names the output format dest's suffix selects: "json" for .json,
// "csv" for .csv, otherwise "text".
func Format(dest string) string {
	switch {
	case strings.HasSuffix(dest, ".json"):
		return "json"
	case strings.HasSuffix(dest, ".csv"):
		return "csv"
	}
	return "text"
}

// WriteMetrics writes reg to dest: the JSON export for a .json suffix,
// otherwise Prometheus text.
func WriteMetrics(dest string, stdout io.Writer, reg *obs.Registry) error {
	return WriteTo(dest, stdout, func(w io.Writer) error {
		if Format(dest) != "json" {
			return reg.WritePrometheus(w)
		}
		data, err := reg.MetricsJSON()
		if err != nil {
			return err
		}
		_, err = w.Write(append(data, '\n'))
		return err
	})
}

// WriteTimeline writes one timeline to dest: CSV for a .csv suffix,
// otherwise JSON.
func WriteTimeline(dest string, stdout io.Writer, tl *timeline.Timeline) error {
	return WriteTo(dest, stdout, func(w io.Writer) error {
		if Format(dest) == "csv" {
			return timeline.WriteCSV(w, tl)
		}
		return timeline.WriteJSON(w, tl)
	})
}

// WriteReports writes several SLO reports to dest in format (see Format):
// text reports separated by a blank line, one JSON array document, or CSV
// sharing one header with a leading label column.
func WriteReports(dest string, stdout io.Writer, format string, reports []*monitor.Report) error {
	return WriteTo(dest, stdout, func(w io.Writer) error {
		switch format {
		case "json":
			return monitor.WriteJSONReports(w, reports)
		case "csv":
			cw := csv.NewWriter(w)
			if err := cw.Write(monitor.CSVHeader("label")); err != nil {
				return err
			}
			for _, rep := range reports {
				if err := monitor.AppendCSV(cw, []string{rep.Label}, rep); err != nil {
					return err
				}
			}
			cw.Flush()
			return cw.Error()
		}
		for i, rep := range reports {
			if i > 0 {
				if _, err := io.WriteString(w, "\n"); err != nil {
					return err
				}
			}
			if err := monitor.WriteText(w, rep); err != nil {
				return err
			}
		}
		return nil
	})
}

// Truncated is the WarnDropped effect for commands that export traces.
const Truncated = "exported traces are truncated"

// WarnDropped warns on stderr when h's trace dropped events and reports
// whether it did; effect says what the loss means for the outputs.
func WarnDropped(stderr io.Writer, who string, h *obs.Hub, effect string) bool {
	d := h.Trace.Dropped()
	if d == 0 {
		return false
	}
	fmt.Fprintf(stderr, "%s: warning: trace dropped %d events; %s\n", who, d, effect)
	return true
}

// startCPU begins a CPU profile into path and returns the function that
// finalizes it; a profile that cannot be written is removed.
func startCPU(path string) (stop func() error, err error) {
	f, finish, err := create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, finish(err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return finish(nil)
	}, nil
}

// writeHeap dumps the allocation profile (pprof "allocs", which includes
// the live heap) to path, after a garbage collection so the in-use numbers
// reflect retained memory, matching `go test -memprofile`.
func writeHeap(path string) error {
	runtime.GC()
	f, finish, err := create(path)
	if err != nil {
		return err
	}
	return finish(pprof.Lookup("allocs").WriteTo(f, 0))
}
