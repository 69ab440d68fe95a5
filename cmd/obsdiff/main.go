// Command obsdiff explains where the time went between two runs: it loads
// two observability artifacts — perfreg snapshots, metrics JSON exports,
// critpath reports, single timelines, or netload timeline grids — aligns
// their series, and prints an exactly-reconciled delta attribution
// (waterfalls, distribution shifts, digest changes, and a ranked blame
// list). A run diffed against itself is exactly zero.
//
// Usage:
//
//	obsdiff A.json B.json              # text waterfall
//	obsdiff -format json A.json B.json # machine-readable report
//	obsdiff -format csv A.json B.json  # flat rows for spreadsheets
//	obsdiff -o out.txt A.json B.json   # write to a file ("-" = stdout)
//	obsdiff -require-zero A.json B.json  # exit 1 unless the diff is zero
//	obsdiff -label-a base -label-b cand A.json B.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"msglayer/internal/cli"
	"msglayer/internal/obs/diff"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obsdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text, json, or csv")
	out := fs.String("o", "-", "output destination (\"-\" = stdout)")
	labelA := fs.String("label-a", "", "label for the first artifact (default: its path)")
	labelB := fs.String("label-b", "", "label for the second artifact (default: its path)")
	requireZero := fs.Bool("require-zero", false, "exit 1 unless the diff is exactly zero (determinism gates)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "obsdiff: want exactly two artifact paths, e.g. obsdiff A.json B.json")
		return 2
	}

	load := func(path, label string) (*diff.Artifact, error) {
		a, err := diff.LoadArtifact(path)
		if err != nil {
			return nil, err
		}
		if label != "" {
			a.Path = label
			if a.Perfreg != nil {
				a.Perfreg.Label = label
			}
		}
		return a, nil
	}
	a, err := load(fs.Arg(0), *labelA)
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 1
	}
	b, err := load(fs.Arg(1), *labelB)
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 1
	}

	report, err := diff.CompareArtifacts(a, b)
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 1
	}
	// Reconcile is the engine's own completeness proof; a failure here is a
	// bug or a corrupt artifact, never a legitimate diff.
	if err := report.Reconcile(); err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 1
	}

	var render func(io.Writer, *diff.Report) error
	switch *format {
	case "text":
		render = diff.WriteText
	case "json":
		render = diff.WriteJSON
	case "csv":
		render = diff.WriteCSV
	default:
		fmt.Fprintf(stderr, "obsdiff: unknown format %q (want text, json, or csv)\n", *format)
		return 2
	}
	if err := cli.WriteTo(*out, stdout, func(w io.Writer) error { return render(w, report) }); err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 1
	}
	if *requireZero && !report.Zero() {
		fmt.Fprintf(stderr, "obsdiff: %s and %s differ (%d series compared)\n", report.ALabel, report.BLabel, report.Terms())
		return 1
	}
	return 0
}
