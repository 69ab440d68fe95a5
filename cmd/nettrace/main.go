// Command nettrace prints the paper's protocol step diagrams (Figures 3,
// 4, 5, and 7) as reconstructed from live protocol runs.
//
// Usage:
//
//	nettrace                 # all four figures
//	nettrace -figure 4       # one figure
//	nettrace -words 32       # transfer size for figures 3 and 5
//	nettrace -packets 6      # packet count for figures 4 and 7
//	nettrace -metrics m.txt  # dump the runs' metrics ("-" = stdout)
//	nettrace -trace-out t.json  # Chrome trace-event JSON of the runs
//	nettrace -timeline-out tl.json  # windowed metrics timeline (.csv for CSV)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"msglayer/internal/obs"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/parsweep"
	"msglayer/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nettrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figure := fs.Int("figure", 0, "figure to trace (3, 4, 5, or 7); 0 = all")
	words := fs.Int("words", 8, "message size in words for figures 3 and 5")
	packets := fs.Int("packets", 4, "packet count for figures 4 and 7")
	metricsOut := fs.String("metrics", "", "dump the figure runs' metrics to a file (\"-\" = stdout)")
	traceOut := fs.String("trace-out", "", "dump a Chrome trace-event JSON of the figure runs (\"-\" = stdout)")
	timelineOut := fs.String("timeline-out", "",
		"sample the figure runs' metrics into windowed deltas on the machine-round clock and write the timeline (\"-\" = stdout; a .csv suffix selects CSV, otherwise JSON)")
	timelineInterval := fs.Int("timeline-interval", 16, "timeline window width in machine rounds")
	shardsFlag := fs.Int("shards", 0,
		"accepted for flag uniformity with the flit-level tools; the figure machines run on the word-level network, which has no sharded engine, so this flag has no effect")
	_ = shardsFlag // validated and reported, never consumed: no sharded engine here
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := parsweep.ValidatePositiveFlags(fs, "shards"); err != nil {
		fmt.Fprintln(stderr, "nettrace:", err)
		return 1
	}
	if *timelineInterval < 1 {
		fmt.Fprintln(stderr, "nettrace: -timeline-interval must be >= 1")
		return 2
	}

	// With -metrics/-trace-out/-timeline-out the figure machines attach a
	// hub, so the runs record full node scopes alongside the printed step
	// diagrams.
	var hub *obs.Hub
	if *metricsOut != "" || *traceOut != "" || *timelineOut != "" {
		hub = obs.NewHub()
		trace.SetObserver(hub)
		defer trace.SetObserver(nil)
	}
	// The timeline sampler rides the hub's round clock across all the
	// figure runs; windows close as the shared round counter crosses
	// interval boundaries.
	var sampler *timeline.Sampler
	if *timelineOut != "" {
		sampler = timeline.New(hub.Metrics, timeline.Config{Interval: uint64(*timelineInterval)})
		hub.SetTickListener(sampler.Advance)
	}

	runners := map[int]func() (trace.Trace, error){
		3: func() (trace.Trace, error) { return trace.Figure3(*words) },
		4: func() (trace.Trace, error) { return trace.Figure4(*packets) },
		5: func() (trace.Trace, error) { return trace.Figure5(*words) },
		7: func() (trace.Trace, error) { return trace.Figure7(*packets) },
	}
	order := []int{3, 4, 5, 7}
	if *figure != 0 {
		if _, ok := runners[*figure]; !ok {
			fmt.Fprintln(stderr, "nettrace: figures 3, 4, 5, and 7 are traceable")
			return 1
		}
		order = []int{*figure}
	}
	for _, f := range order {
		tr, err := runners[f]()
		if err != nil {
			fmt.Fprintf(stderr, "nettrace: figure %d: %v\n", f, err)
			return 1
		}
		fmt.Fprintln(stdout, tr)
	}
	fmt.Fprintln(stderr, "# shards: 1 (accepted for flag uniformity; the word-level figure machines have no sharded engine)")

	if hub != nil {
		if *metricsOut != "" {
			if err := writeTo(*metricsOut, stdout, hub.Metrics.WritePrometheus); err != nil {
				fmt.Fprintln(stderr, "nettrace:", err)
				return 1
			}
		}
		if *traceOut != "" {
			if err := writeTo(*traceOut, stdout, hub.Trace.WriteChromeTrace); err != nil {
				fmt.Fprintln(stderr, "nettrace:", err)
				return 1
			}
		}
		if sampler != nil {
			// A run that never ticked the round clock still closes one
			// window holding all its deltas.
			end := hub.Round()
			if end == 0 {
				end = 1
			}
			sampler.Flush(end)
			// Window deltas must sum exactly to the final registry totals.
			if err := sampler.Reconcile(); err != nil {
				fmt.Fprintln(stderr, "nettrace: timeline reconciliation:", err)
				return 1
			}
			tl := sampler.Snapshot()
			render := func(w io.Writer) error {
				if strings.HasSuffix(*timelineOut, ".csv") {
					return timeline.WriteCSV(w, tl)
				}
				return timeline.WriteJSON(w, tl)
			}
			if err := writeTo(*timelineOut, stdout, render); err != nil {
				fmt.Fprintln(stderr, "nettrace:", err)
				return 1
			}
		}
		if d := hub.Trace.Dropped(); d > 0 {
			fmt.Fprintf(stderr, "nettrace: warning: trace dropped %d events; exported traces are truncated\n", d)
		}
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
