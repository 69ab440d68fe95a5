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

	"msglayer/internal/cli"
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
	o := cli.NewFlags(fs)
	o.MetricsFlag("the figure runs' metrics")
	o.TraceFlag(" of the figure runs")
	o.TimelineFlags("sample the figure runs' metrics into windowed deltas on the machine-round clock and write the timeline",
		16, "machine rounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := o.Check(); err != nil {
		fmt.Fprintln(stderr, "nettrace:", err)
		return 2
	}

	// With -metrics/-trace-out/-timeline-out the figure machines attach a
	// session hub, so the runs record full node scopes alongside the
	// printed step diagrams; the timeline sampler rides the hub's round
	// clock across all the figure runs.
	var sess *cli.Session
	if o.Metrics != "" || o.TraceOut != "" || o.TimelineOut != "" {
		var err error
		if sess, err = cli.NewSession(cli.SessionConfig{
			Timeline: o.TimelineOut != "",
			Interval: uint64(o.TimelineInterval),
		}); err != nil {
			fmt.Fprintln(stderr, "nettrace:", err)
			return 1
		}
		trace.SetObserver(sess.Hub)
		defer trace.SetObserver(nil)
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

	if sess == nil {
		return 0
	}
	tl, err := sess.Finish()
	if err != nil {
		fmt.Fprintln(stderr, "nettrace:", err)
		return 1
	}
	if o.Metrics != "" {
		if err := cli.WriteMetrics(o.Metrics, stdout, sess.Hub.Metrics); err != nil {
			fmt.Fprintln(stderr, "nettrace:", err)
			return 1
		}
	}
	if o.TraceOut != "" {
		if err := cli.WriteTo(o.TraceOut, stdout, sess.Hub.Trace.WriteChromeTrace); err != nil {
			fmt.Fprintln(stderr, "nettrace:", err)
			return 1
		}
	}
	if tl != nil {
		if err := cli.WriteTimeline(o.TimelineOut, stdout, tl); err != nil {
			fmt.Fprintln(stderr, "nettrace:", err)
			return 1
		}
	}
	cli.WarnDropped(stderr, "nettrace", sess.Hub, cli.Truncated)
	return 0
}
