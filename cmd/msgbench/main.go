// Command msgbench regenerates the paper's tables and figures from the
// simulation, printing each result alongside the paper's published value.
// With -scenario it instead runs the canonical transfer scenarios into the
// observers, the one way to get their metrics, traces, critical-path
// reports, timelines and SLO reports.
//
// Usage:
//
//	msgbench                  # all paper experiments
//	msgbench -table 2         # one table (1, 2, or 3)
//	msgbench -figure 6        # one figure (6 or 8)
//	msgbench -ablations       # the prose-claim ablations and the flit demo
//	msgbench -parallel 4      # fan the experiments over 4 workers
//	msgbench -quiet           # only the paper-vs-measured summary
//	msgbench -json            # machine-readable result summary on stdout
//	msgbench -scenario cm5-finite,cr-stream -words 256  # canonical scenarios instead
//	msgbench -metrics m.txt   # dump runtime metrics ("-" = stdout; .json for JSON)
//	msgbench -trace-out t.json  # dump a Chrome trace of the runs
//	msgbench -critpath cp.txt # per-message critical-path attribution ("-" = stdout; .json for JSON)
//	msgbench -flow flow.json  # Chrome trace with per-message flow arrows
//	msgbench -timeline-out tl.json  # windowed metrics timeline (.csv for CSV)
//	msgbench -slo rules.json  # evaluate SLO rules live; exit 3 on violation
//	msgbench -serve :8080     # live /metrics, /snapshot, /trace, /debug/pprof/
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"msglayer/internal/cli"
	"msglayer/internal/critpath"
	"msglayer/internal/experiments"
	"msglayer/internal/obs/monitor"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/parsweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// reconcile gates the -critpath report. It is a variable only so tests can
// make it fail.
var reconcile = critpath.Reconcile

// partial is the WarnDropped effect for a critical-path report built from
// a truncated trace.
const partial = "critical-path report is partial and skips reconciliation"

// paperOnly are the flags only the paper's experiments use; a -scenario run
// would ignore them.
var paperOnly = []string{"table", "figure", "ablations", "json", "quiet", "parallel"}

// jsonComparison is one paper-vs-measured row of the -json summary.
type jsonComparison struct {
	Name     string `json:"name"`
	Paper    uint64 `json:"paper"`
	Measured uint64 `json:"measured"`
	Match    bool   `json:"match"`
	Note     string `json:"note,omitempty"`
}

// jsonResult is one experiment of the -json summary.
type jsonResult struct {
	ID          string           `json:"id"`
	Title       string           `json:"title"`
	Comparisons []jsonComparison `json:"comparisons"`
}

// jsonSummary is the toplevel -json document.
type jsonSummary struct {
	Results    []jsonResult `json:"results"`
	Mismatches int          `json:"mismatches"`
}

// run executes the tool; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "run a single table (1, 2, or 3)")
	figure := fs.Int("figure", 0, "run a single figure (6 or 8)")
	ablations := fs.Bool("ablations", false, "run the ablation experiments")
	parallel := fs.Int("parallel", 0,
		"worker goroutines for the full experiment run (0 = GOMAXPROCS, 1 = serial; forced serial when an observer is attached)")
	quiet := fs.Bool("quiet", false, "print only the comparison summary")
	asJSON := fs.Bool("json", false, "print a machine-readable JSON summary instead of text")
	o := cli.NewFlags(fs)
	o.MetricsFlag("runtime metrics after the runs")
	o.TraceFlag(" of the runs")
	critpathOut := fs.String("critpath", "",
		"write a per-message critical-path attribution report of the runs, reconciled exactly against the registry counters (\"-\" = stdout; a .json suffix selects JSON, otherwise text)")
	flowOut := fs.String("flow", "", "write a Chrome trace of the runs with per-message flow arrows (\"-\" = stdout)")
	scenarioArg := fs.String("scenario", "",
		"run these canonical scenarios in order (comma-separated, or \"all\": "+strings.Join(experiments.CanonicalScenarios(), ", ")+
			") instead of the paper's tables and figures; stdout carries only the artifacts sent to \"-\"")
	words := fs.Int("words", 64, "transfer size in words for -scenario")
	o.ServeFlag("and keep serving after the runs until interrupted")
	o.TimelineFlags("sample the runs' metrics into windowed deltas on the machine-round clock and write the timeline",
		100, "machine rounds")
	o.SLOFlags("live against the runs' windowed metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := o.Check(); err != nil {
		fmt.Fprintln(stderr, "msgbench:", err)
		return 2
	}
	scenarios, err := parseScenarios(fs, *scenarioArg, *words)
	if err != nil {
		fmt.Fprintln(stderr, "msgbench:", err)
		return 2
	}
	if err := parsweep.ValidatePositiveFlags(fs, "parallel"); err != nil {
		fmt.Fprintln(stderr, "msgbench:", err)
		return 1
	}
	rules, err := o.Rules()
	if err != nil {
		fmt.Fprintln(stderr, "msgbench:", err)
		return 1
	}
	// The session's sampler rides the hub's round clock: every machine.Run
	// round ticks the hub, and windows close as the shared round counter
	// crosses interval boundaries across all experiments. The SLO monitor
	// evaluates each window live as it closes.
	var sess *cli.Session
	if o.Metrics != "" || o.TraceOut != "" || *critpathOut != "" || *flowOut != "" || o.Serve != "" || o.TimelineOut != "" || rules != nil {
		sess, err = cli.NewSession(cli.SessionConfig{
			Timeline: o.TimelineOut != "",
			Interval: uint64(o.TimelineInterval),
			Rules:    rules,
		})
		if err != nil {
			fmt.Fprintln(stderr, "msgbench:", err)
			return 1
		}
		experiments.SetObserver(sess.Hub)
		defer experiments.SetObserver(nil)
	}
	var srv *cli.Server
	if sess != nil {
		if srv, err = cli.Serve("msgbench", o.Serve, sess.Hub, sess.Sampler, sess.Monitor, stderr); err != nil {
			fmt.Fprintln(stderr, "msgbench:", err)
			return 1
		}
		defer srv.Close()
	}

	var results []experiments.Result
	// The experiments mutate the hub through the global observer, so with
	// -serve they run under the server's lock, serialized vs the handlers.
	runAll := func() {
		switch {
		case scenarios != nil:
			for _, name := range scenarios {
				if _, err = experiments.RunCanonical(name, *words); err != nil {
					err = fmt.Errorf("%s: %w", name, err)
					return
				}
			}
		case *table == 1:
			results, err = one(experiments.Table1)
		case *table == 2:
			results, err = one(experiments.Table2)
		case *table == 3:
			results, err = one(experiments.Table3)
		case *figure == 6:
			results, err = one(experiments.Figure6)
		case *figure == 8:
			results, err = one(experiments.Figure8)
		case *table != 0 || *figure != 0:
			err = fmt.Errorf("no such table/figure (tables 1-3, figures 6 and 8)")
		case *ablations:
			results, err = experiments.Ablations()
		default:
			// AllWith falls back to serial on its own when an observer hub
			// is attached, so -metrics/-trace-out/-serve artifacts keep
			// their run-order layout.
			results, err = experiments.AllWith(*parallel)
		}
	}
	srv.Sync(runAll)
	if err != nil {
		fmt.Fprintln(stderr, "msgbench:", err)
		return 1
	}
	var tl *timeline.Timeline
	var rep *monitor.Report
	if sess != nil {
		label := "msgbench"
		if scenarios != nil {
			label = *scenarioArg
		}
		srv.Sync(func() {
			if tl, err = sess.Finish(); err == nil && sess.Monitor != nil {
				rep = sess.Monitor.Snapshot(label)
			}
		})
		if err != nil {
			fmt.Fprintln(stderr, "msgbench:", err)
			return 1
		}
		// A trace that dropped events cannot reconcile against the
		// registry; its report is partial instead of failing the run.
		if *critpathOut != "" && !cli.WarnDropped(stderr, "msgbench", sess.Hub, partial) {
			if err := reconcile(sess.Hub); err != nil {
				fmt.Fprintln(stderr, "msgbench: critpath reconciliation failed:", err)
				return 1
			}
		}
	}

	mismatches := 0
	summary := jsonSummary{Results: []jsonResult{}}
	for _, r := range results {
		jr := jsonResult{ID: r.ID, Title: r.Title, Comparisons: []jsonComparison{}}
		for _, c := range r.Comparisons {
			if !c.Match() {
				mismatches++
			}
			jr.Comparisons = append(jr.Comparisons, jsonComparison{
				Name: c.Name, Paper: c.Paper, Measured: c.Measured, Match: c.Match(), Note: c.Note,
			})
		}
		summary.Results = append(summary.Results, jr)
	}
	summary.Mismatches = mismatches

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summary); err != nil {
			fmt.Fprintln(stderr, "msgbench:", err)
			return 1
		}
	} else {
		for _, r := range results {
			fmt.Fprintf(stdout, "==== %s ====\n", r.Title)
			if !*quiet {
				fmt.Fprintln(stdout, r.Text)
			}
			for _, c := range r.Comparisons {
				status := "ok"
				if !c.Match() {
					status = "MISMATCH"
				}
				note := ""
				if c.Note != "" {
					note = "  [" + c.Note + "]"
				}
				fmt.Fprintf(stdout, "  %-58s paper %8d  measured %8d  %s%s\n",
					c.Name, c.Paper, c.Measured, status, note)
			}
			fmt.Fprintln(stdout)
		}
	}

	if sess != nil {
		hub := sess.Hub
		if o.Metrics != "" {
			if err := cli.WriteMetrics(o.Metrics, stdout, hub.Metrics); err != nil {
				fmt.Fprintln(stderr, "msgbench:", err)
				return 1
			}
		}
		if o.TraceOut != "" {
			if err := cli.WriteTo(o.TraceOut, stdout, hub.Trace.WriteChromeTrace); err != nil {
				fmt.Fprintln(stderr, "msgbench:", err)
				return 1
			}
		}
		if *critpathOut != "" {
			render := func(w io.Writer) error {
				a := critpath.Analyze(hub.Trace.Events())
				if cli.Format(*critpathOut) != "json" {
					return critpath.WriteText(w, a)
				}
				js, err := critpath.JSON(a)
				if err != nil {
					return err
				}
				_, err = w.Write(append(js, '\n'))
				return err
			}
			if err := cli.WriteTo(*critpathOut, stdout, render); err != nil {
				fmt.Fprintln(stderr, "msgbench:", err)
				return 1
			}
		}
		if *flowOut != "" {
			render := func(w io.Writer) error { return critpath.WriteChromeFlow(w, hub.Trace.Events()) }
			if err := cli.WriteTo(*flowOut, stdout, render); err != nil {
				fmt.Fprintln(stderr, "msgbench:", err)
				return 1
			}
		}
		if o.TimelineOut != "" {
			if err := cli.WriteTimeline(o.TimelineOut, stdout, tl); err != nil {
				fmt.Fprintln(stderr, "msgbench:", err)
				return 1
			}
		}
		cli.WarnDropped(stderr, "msgbench", hub, cli.Truncated)
	}

	// The SLO report is written before any violation exit so the artifact
	// always exists; a paper mismatch still takes exit-code precedence.
	sloViolated := false
	if rep != nil {
		sloViolated = len(rep.Incidents) > 0
		render := func(w io.Writer) error {
			switch cli.Format(o.SLOOut) {
			case "json":
				return monitor.WriteJSON(w, rep)
			case "csv":
				return monitor.WriteCSV(w, rep)
			default:
				return monitor.WriteText(w, rep)
			}
		}
		if err := cli.WriteTo(o.SLOOut, stdout, render); err != nil {
			fmt.Fprintln(stderr, "msgbench:", err)
			return 1
		}
	}

	srv.Hold("runs done")
	if mismatches > 0 {
		fmt.Fprintf(stderr, "msgbench: %d comparisons diverged from the paper\n", mismatches)
		return 1
	}
	if sloViolated {
		fmt.Fprintln(stderr, "msgbench: SLO violated")
		return 3
	}
	return 0
}

func one(runOne func() (experiments.Result, error)) ([]experiments.Result, error) {
	r, err := runOne()
	if err != nil {
		return nil, err
	}
	return []experiments.Result{r}, nil
}

// parseScenarios resolves -scenario into the canonical scenario names to
// run, or nil for the paper's experiments, and rejects the flags that would
// do nothing in the chosen mode.
func parseScenarios(fs *flag.FlagSet, arg string, words int) ([]string, error) {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["scenario"] {
		if set["words"] {
			return nil, errors.New("-words needs -scenario")
		}
		return nil, nil
	}
	for _, name := range paperOnly {
		if set[name] {
			return nil, fmt.Errorf("-scenario cannot be combined with -%s", name)
		}
	}
	if words < 1 {
		return nil, errors.New("-words must be positive")
	}
	known := experiments.CanonicalScenarios()
	if arg == "all" {
		return known, nil
	}
	names := strings.Split(arg, ",")
	for _, name := range names {
		if !slices.Contains(known, name) {
			return nil, fmt.Errorf("unknown scenario %q (want all, or some of %s)", name, strings.Join(known, ", "))
		}
	}
	return names, nil
}
