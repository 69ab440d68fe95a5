// Command benchgate records and gates behaviour snapshots: the committed
// BENCH_PR10.json baseline every PR is judged against, with older
// snapshots kept under bench/history.
//
// Record mode runs the canonical scenarios (single-packet, finite and
// indefinite CM-5/CR transfers, one flit-level netload sweep point, the
// analytic twin's calibration) and the allocation benchmarks, and writes a
// schema-versioned snapshot of the deterministic simulation metrics
// (instruction costs per role × feature × category, rounds, packet counts,
// flit stats, timeline and alert digests) and each bench's allocs/op.
//
// Compare mode gates a new snapshot against an old one: sim metrics must
// match exactly (any instruction-count drift fails), allocation benchmarks
// must not grow their allocs/op, and the new snapshot's idle fast-forward
// speedup must clear its floor. Host wall time is not gated here; the
// perfbench module measures it. Exit status 0 means the gate passed, 1
// means it failed or errored, 2 means bad usage.
//
// Usage:
//
//	benchgate -record fresh.json -label PR10             # write a snapshot
//	benchgate -record fresh.json -no-benches             # sim metrics only
//	benchgate -compare BENCH_PR10.json fresh.json        # gate new vs old
//	benchgate -compare -json BENCH_PR10.json fresh.json  # machine-readable result
//
// Flags must precede the snapshot paths (standard library flag parsing).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"msglayer/internal/obs/diff"
	"msglayer/internal/perfreg"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	record := fs.String("record", "", "record a snapshot to this path")
	label := fs.String("label", "", "label stored in the recorded snapshot")
	noBenches := fs.Bool("no-benches", false, "skip the allocation benchmarks when recording")
	compare := fs.Bool("compare", false, "compare two snapshots: benchgate -compare old.json new.json")
	jsonOut := fs.Bool("json", false, "with -compare, emit the machine-readable result (verdict, failing keys, diff attribution)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "benchgate: record and gate behaviour snapshots")
		fmt.Fprintln(stderr, "  benchgate -record out.json [-label L] [-no-benches]")
		fmt.Fprintln(stderr, "  benchgate -compare [-json] old.json new.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *record != "" && *compare:
		fmt.Fprintln(stderr, "benchgate: -record and -compare are mutually exclusive")
		return 2
	case *jsonOut && !*compare:
		fmt.Fprintln(stderr, "benchgate: -json only applies to -compare")
		return 2
	case *record != "":
		if fs.NArg() != 0 {
			fmt.Fprintln(stderr, "benchgate: -record takes no snapshot paths, got", fs.NArg())
			return 2
		}
		return doRecord(perfreg.RecordConfig{
			Label:       *label,
			SkipBenches: *noBenches,
			Timestamp:   time.Now().UTC().Format(time.RFC3339),
		}, *record, stdout, stderr)
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchgate: -compare wants exactly two snapshot paths, got", fs.NArg())
			return 2
		}
		return doCompare(fs.Arg(0), fs.Arg(1), *jsonOut, stdout, stderr)
	}
	fs.Usage()
	return 2
}

// doRecord runs the harness and writes the snapshot.
func doRecord(cfg perfreg.RecordConfig, path string, stdout, stderr io.Writer) int {
	start := time.Now()
	snap, err := perfreg.Record(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}
	if err := snap.WriteFile(path); err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}
	fmt.Fprintf(stdout, "benchgate: recorded %d scenarios and %d benches to %s in %v\n",
		len(snap.Scenarios), len(snap.Benches), path, time.Since(start).Round(time.Millisecond))
	return 0
}

// doCompare gates new against old and prints the verdict table (or, with
// jsonOut, the machine-readable result). When a deterministic gate fails,
// the diff engine attributes the regression — which cells moved, by how
// much, and their blame shares — instead of leaving a bare key list.
func doCompare(oldPath, newPath string, jsonOut bool, stdout, stderr io.Writer) int {
	oldSnap, err := perfreg.ReadFile(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}
	newSnap, err := perfreg.ReadFile(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}
	rep, err := perfreg.Compare(oldSnap, newSnap)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}
	attribution := simAttribution(rep, oldSnap, newSnap)

	if jsonOut {
		doc := struct {
			Old         snapshotRef     `json:"old"`
			New         snapshotRef     `json:"new"`
			Pass        bool            `json:"pass"`
			SimChecked  int             `json:"sim_checked"`
			SimEqual    int             `json:"sim_equal"`
			Failing     []perfreg.Delta `json:"failing,omitempty"`
			Attribution *diff.Report    `json:"attribution,omitempty"`
		}{
			Old:        snapshotRef{Path: oldPath, Label: oldSnap.Label},
			New:        snapshotRef{Path: newPath, Label: newSnap.Label},
			Pass:       rep.Pass,
			SimChecked: rep.SimChecked,
			SimEqual:   rep.SimEqual,
			Failing:    rep.Failing(),
		}
		doc.Attribution = attribution
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(out))
		if !rep.Pass {
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "benchgate: %q (%s) vs %q (%s)\n",
		oldSnap.Label, oldPath, newSnap.Label, newPath)
	fmt.Fprint(stdout, rep.String())
	if attribution != nil {
		fmt.Fprintf(stdout, "\n-- differential attribution (obsdiff) --\n")
		if err := diff.WriteText(stdout, attribution); err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
			return 1
		}
	}
	if !rep.Pass {
		return 1
	}
	return 0
}

// snapshotRef identifies one compared snapshot in the JSON result.
type snapshotRef struct {
	Path  string `json:"path"`
	Label string `json:"label"`
}

// simAttribution runs the diff engine over the snapshots when the gate
// failed: every gate is deterministic, so the engine can explain any
// failure exactly.
func simAttribution(rep *perfreg.Report, oldSnap, newSnap *perfreg.Snapshot) *diff.Report {
	if rep.Pass {
		return nil
	}
	return diff.ComparePerfreg(oldSnap, newSnap)
}
