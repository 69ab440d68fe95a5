// Command msgbench regenerates the paper's tables and figures from the
// simulation, printing each result alongside the paper's published value.
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
//	msgbench -metrics m.txt   # dump runtime metrics ("-" = stdout)
//	msgbench -trace-out t.json  # dump a Chrome trace of the runs
//	msgbench -critpath cp.txt # per-message critical-path attribution ("-" = stdout)
//	msgbench -timeline-out tl.json  # windowed metrics timeline (.csv for CSV)
//	msgbench -slo rules.yaml  # evaluate SLO rules live; exit 3 on violation
//	msgbench -serve :8080     # live /metrics, /snapshot, /trace, /debug/pprof/
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"msglayer/internal/critpath"
	"msglayer/internal/experiments"
	"msglayer/internal/obs"
	"msglayer/internal/obs/monitor"
	"msglayer/internal/obs/monitor/blame"
	"msglayer/internal/obs/serve"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/parsweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

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
	shardsFlag := fs.Int("shards", 0,
		"engine shards for the flit-level experiments (0 = auto, which selects 1, the serial engine; larger values are held to GOMAXPROCS split across the -parallel workers, which take precedence; results are byte-identical at any value)")
	quiet := fs.Bool("quiet", false, "print only the comparison summary")
	asJSON := fs.Bool("json", false, "print a machine-readable JSON summary instead of text")
	metrics := fs.String("metrics", "", "dump runtime metrics to a file after the runs (\"-\" = stdout)")
	traceOut := fs.String("trace-out", "", "dump a Chrome trace-event JSON of the runs (\"-\" = stdout)")
	critpathOut := fs.String("critpath", "",
		"write a per-message critical-path attribution report of the runs (\"-\" = stdout)")
	serveAddr := fs.String("serve", "",
		"serve live observability on this address (/metrics, /snapshot, /trace, /debug/pprof/) and keep serving after the runs until interrupted")
	timelineOut := fs.String("timeline-out", "",
		"sample the runs' metrics into windowed deltas on the machine-round clock and write the timeline (\"-\" = stdout; a .csv suffix selects CSV, otherwise JSON)")
	timelineInterval := fs.Int("timeline-interval", 100, "timeline window width in machine rounds")
	sloRulesPath := fs.String("slo", "",
		"evaluate SLO rules (JSON/YAML file, or \"canonical\") live against the runs' windowed metrics and exit 3 if any alert fired")
	sloOut := fs.String("slo-out", "-",
		"SLO alert report destination (\"-\" = stdout; .json/.csv suffixes select the format, otherwise text)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := parsweep.ValidatePositiveFlags(fs, "parallel", "shards"); err != nil {
		fmt.Fprintln(stderr, "msgbench:", err)
		return 1
	}
	if *timelineInterval < 1 {
		fmt.Fprintln(stderr, "msgbench: -timeline-interval must be >= 1")
		return 1
	}
	// Engine shards for the flit-level experiments: the worker fan-out
	// (barrier-free, whole experiments at a time) takes precedence, and the
	// product of workers and shards stays within GOMAXPROCS. Results are
	// byte-identical at any shard count.
	experiments.SetFlitShards(parsweep.Shards(*shardsFlag, parsweep.Workers(*parallel)))
	defer experiments.SetFlitShards(0)

	var rules *monitor.RuleSet
	if *sloRulesPath != "" {
		var err error
		if rules, err = monitor.LoadRules(*sloRulesPath); err != nil {
			fmt.Fprintln(stderr, "msgbench:", err)
			return 1
		}
	}
	var hub *obs.Hub
	if *metrics != "" || *traceOut != "" || *critpathOut != "" || *serveAddr != "" || *timelineOut != "" || rules != nil {
		hub = obs.NewHub()
		experiments.SetObserver(hub)
		defer experiments.SetObserver(nil)
	}
	// The timeline sampler rides the hub's round clock: every machine.Run
	// round ticks the hub, and the sampler closes windows as the shared
	// round counter crosses interval boundaries across all experiments.
	var sampler *timeline.Sampler
	if *timelineOut != "" || rules != nil {
		sampler = timeline.New(hub.Metrics, timeline.Config{Interval: uint64(*timelineInterval)})
		hub.SetTickListener(sampler.Advance)
	}
	// The SLO monitor evaluates windows live as the sampler closes them —
	// the same code path the recorded-timeline replay takes, so reports are
	// byte-identical either way.
	var mon *monitor.Monitor
	if rules != nil {
		var err error
		if mon, err = monitor.New(rules); err != nil {
			fmt.Fprintln(stderr, "msgbench:", err)
			return 1
		}
		mon.SetBlamer(blame.Compute)
		mon.Attach(sampler)
	}
	ctx := context.Background()
	var srv *serve.Server
	if *serveAddr != "" {
		srv = serve.New(hub)
		srv.SetTimeline(sampler)
		srv.SetMonitor(mon)
		if err := srv.Start(*serveAddr); err != nil {
			fmt.Fprintln(stderr, "msgbench:", err)
			return 1
		}
		var cancel context.CancelFunc
		ctx, cancel = signal.NotifyContext(ctx, os.Interrupt)
		defer cancel()
		defer func() {
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer scancel()
			if err := srv.Shutdown(sctx); err != nil {
				fmt.Fprintln(stderr, "msgbench: shutdown:", err)
			}
		}()
		fmt.Fprintf(stderr, "msgbench: observability on http://%s (SIGINT to stop)\n", srv.Addr())
	}

	var results []experiments.Result
	var err error
	// The experiments mutate the hub through the global observer, so with
	// -serve they run under the server's lock, serialized vs the handlers.
	runAll := func() {
		switch {
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
	if srv != nil {
		srv.Sync(runAll)
	} else {
		runAll()
	}
	if err != nil {
		fmt.Fprintln(stderr, "msgbench:", err)
		return 1
	}
	if sampler != nil {
		var recErr error
		finish := func() {
			sampler.Flush(hub.Round())
			// Window deltas must sum exactly to the final registry totals.
			recErr = sampler.Reconcile()
		}
		if srv != nil {
			srv.Sync(finish)
		} else {
			finish()
		}
		if recErr != nil {
			fmt.Fprintln(stderr, "msgbench: timeline reconciliation:", recErr)
			return 1
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

	if hub != nil {
		if *metrics != "" {
			if err := writeTo(*metrics, stdout, hub.Metrics.WritePrometheus); err != nil {
				fmt.Fprintln(stderr, "msgbench:", err)
				return 1
			}
		}
		if *traceOut != "" {
			if err := writeTo(*traceOut, stdout, hub.Trace.WriteChromeTrace); err != nil {
				fmt.Fprintln(stderr, "msgbench:", err)
				return 1
			}
		}
		if *critpathOut != "" {
			render := func(w io.Writer) error {
				return critpath.WriteText(w, critpath.Analyze(hub.Trace.Events()))
			}
			if err := writeTo(*critpathOut, stdout, render); err != nil {
				fmt.Fprintln(stderr, "msgbench:", err)
				return 1
			}
		}
		if sampler != nil && *timelineOut != "" {
			var tl *timeline.Timeline
			snap := func() { tl = sampler.Snapshot() }
			if srv != nil {
				srv.Sync(snap)
			} else {
				snap()
			}
			render := func(w io.Writer) error {
				if strings.HasSuffix(*timelineOut, ".csv") {
					return timeline.WriteCSV(w, tl)
				}
				return timeline.WriteJSON(w, tl)
			}
			if err := writeTo(*timelineOut, stdout, render); err != nil {
				fmt.Fprintln(stderr, "msgbench:", err)
				return 1
			}
		}
		if d := hub.Trace.Dropped(); d > 0 {
			fmt.Fprintf(stderr, "msgbench: warning: trace dropped %d events; exported traces are truncated\n", d)
		}
	}

	// The SLO report is written before any violation exit so the artifact
	// always exists; a paper mismatch still takes exit-code precedence.
	sloViolated := false
	if mon != nil {
		var rep *monitor.Report
		snap := func() { rep = mon.Snapshot("msgbench") }
		if srv != nil {
			srv.Sync(snap)
		} else {
			snap()
		}
		sloViolated = len(rep.Incidents) > 0
		render := func(w io.Writer) error {
			switch {
			case strings.HasSuffix(*sloOut, ".json"):
				return monitor.WriteJSON(w, rep)
			case strings.HasSuffix(*sloOut, ".csv"):
				return monitor.WriteCSV(w, rep)
			default:
				return monitor.WriteText(w, rep)
			}
		}
		if err := writeTo(*sloOut, stdout, render); err != nil {
			fmt.Fprintln(stderr, "msgbench:", err)
			return 1
		}
	}

	if srv != nil && ctx.Err() == nil {
		// Keep the recorded run inspectable until the user interrupts.
		fmt.Fprintln(stderr, "msgbench: runs done, still serving (SIGINT to stop)")
		<-ctx.Done()
	}
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

// writeTo renders into a file, or stdout for "-". A failed render or close
// removes the file rather than leaving a truncated dump behind.
func writeTo(dest string, stdout io.Writer, render func(io.Writer) error) error {
	if dest == "-" {
		return render(stdout)
	}
	f, err := os.Create(dest)
	if err != nil {
		return fmt.Errorf("writing %s: %w", dest, err)
	}
	err = render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(dest)
		return fmt.Errorf("writing %s: %w", dest, err)
	}
	return nil
}

func one(runOne func() (experiments.Result, error)) ([]experiments.Result, error) {
	r, err := runOne()
	if err != nil {
		return nil, err
	}
	return []experiments.Result{r}, nil
}
