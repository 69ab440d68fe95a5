// Command sweep evaluates the generalized cost model (the paper's Figure 8)
// over packet sizes, message sizes, out-of-order fractions, and
// acknowledgement group sizes, printing a table or CSV.
//
// Usage:
//
//	sweep                                  # Figure 8 right: 1024 words, n = 4..128
//	sweep -words 4096 -sizes 4,8,16        # custom sweep
//	sweep -protocol finite-cr              # any of the four protocols
//	sweep -ackgroup 8 -ooo 0.25            # indefinite-protocol knobs
//	sweep -csv                             # machine-readable output
//	sweep -metrics m.txt                   # dump per-point cost metrics ("-" = stdout)
//	sweep -trace-out t.json                # Chrome trace with one span per point
//	sweep -cpuprofile cpu.out              # pprof CPU profile of the sweep
//	sweep -memprofile mem.out              # pprof allocation profile at exit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"msglayer/internal/analytic"
	"msglayer/internal/cli"
	"msglayer/internal/cost"
	"msglayer/internal/experiments"
	"msglayer/internal/obs"
	"msglayer/internal/parsweep"
	"msglayer/internal/report"
)

var protocols = map[string]analytic.Protocol{
	"finite":        analytic.ProtoFiniteCMAM,
	"indefinite":    analytic.ProtoIndefiniteCMAM,
	"finite-cr":     analytic.ProtoFiniteCR,
	"indefinite-cr": analytic.ProtoIndefiniteCR,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	words := fs.Int("words", 1024, "message size in words")
	sizesArg := fs.String("sizes", "4,8,16,32,64,128", "comma-separated packet payload sizes")
	protoArg := fs.String("protocol", "", "protocol: finite, indefinite, finite-cr, indefinite-cr (default: finite and indefinite)")
	ooo := fs.Float64("ooo", 0.5, "fraction of packets arriving out of order (indefinite protocols)")
	ackGroup := fs.Int("ackgroup", 1, "acknowledgement group size (indefinite CMAM)")
	parallel := fs.Int("parallel", 0, "worker goroutines for the sweep (0 = GOMAXPROCS, 1 = serial)")
	twinCol := fs.Bool("twin", false,
		"run each point on the real simulator too and append sim-total and twin-err% columns (predicted vs measured; requires -ooo 0.5, the stream substrate's actual reorder fraction)")
	csv := fs.Bool("csv", false, "emit CSV")
	o := cli.NewFlags(fs)
	o.ProfileFlags("the sweep")
	o.MetricsFlag("the per-point cost metrics")
	o.TraceFlag(", one span per sweep point")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := parsweep.ValidatePositiveFlags(fs, "parallel"); err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}
	if *twinCol && *ooo != 0.5 {
		fmt.Fprintln(stderr, "sweep: -twin compares against the simulator, whose stream substrate delivers exactly half the packets out of order; rerun with -ooo 0.5")
		return 1
	}

	sizes, err := parseSizes(*sizesArg)
	if err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}
	stopProfiles, err := o.StartProfiles()
	if err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			code = 1
		}
	}()
	var selected []analytic.Protocol
	if *protoArg == "" {
		selected = []analytic.Protocol{analytic.ProtoIndefiniteCMAM, analytic.ProtoFiniteCMAM}
	} else {
		p, ok := protocols[*protoArg]
		if !ok {
			fmt.Fprintf(stderr, "sweep: unknown protocol %q\n", *protoArg)
			return 1
		}
		selected = []analytic.Protocol{p}
	}
	var names []string
	for _, p := range selected {
		names = append(names, p.String()+" total", p.String()+" overhead")
		if *twinCol {
			names = append(names, p.String()+" sim total", p.String()+" twin-err%")
		}
	}
	// protoName recovers the CLI name of a protocol for the simulator side
	// of the -twin comparison.
	protoName := func(p analytic.Protocol) string {
		for name, pp := range protocols {
			if pp == p {
				return name
			}
		}
		return ""
	}

	// Every packet size evaluates independently against its own schedule, so
	// the sweep fans across a worker pool; Map reassembles points in input
	// order, keeping the table identical at any worker count.
	points, err := parsweep.Map(parsweep.Workers(*parallel), len(sizes),
		func(i int) (report.SeriesPoint, error) {
			n := sizes[i]
			sched, err := cost.NewPaperSchedule(n)
			if err != nil {
				return report.SeriesPoint{}, err
			}
			p := analytic.Packets(sched, *words)
			prm := analytic.Params{
				MessageWords: *words,
				OutOfOrder:   int(*ooo * float64(p)),
				AckGroup:     *ackGroup,
			}
			var values []float64
			for _, proto := range selected {
				b, err := analytic.Evaluate(proto, sched, prm)
				if err != nil {
					return report.SeriesPoint{}, err
				}
				values = append(values, float64(b.Total().Total()), b.Overhead())
				if *twinCol {
					cells, err := experiments.RunProtocol(protoName(proto), *words, n, *ackGroup)
					if err != nil {
						return report.SeriesPoint{}, err
					}
					sim := float64(cells.Total().Total())
					errPct := 0.0
					if sim != 0 {
						errPct = (float64(b.Total().Total()) - sim) / sim * 100
					}
					values = append(values, sim, errPct)
				}
			}
			return report.SeriesPoint{X: n, Values: values}, nil
		})
	if err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}

	// The analytic grid records into a hub like the simulator sweeps do:
	// one registry series per (protocol, packet size) and one trace span
	// per point, consumed in input order so dumps are byte-identical at
	// any worker count.
	if o.Metrics != "" || o.TraceOut != "" {
		hub := obs.NewHub()
		for i, pt := range points {
			n := sizes[i]
			for pi, proto := range selected {
				key := func(name string) obs.Key {
					return obs.Key{Name: name, Node: -1, Proto: proto.String(), Event: fmt.Sprintf("n%d", n)}
				}
				hub.Metrics.Level(key("sweep_cost_total_instr")).Set(int64(pt.Values[2*pi]))
				// The registry is integer-valued; overhead keeps permille.
				hub.Metrics.Level(key("sweep_overhead_permille")).Set(int64(pt.Values[2*pi+1] * 1000))
				hub.Trace.Record(obs.TraceEvent{
					TS:    hub.Trace.Now() + 1,
					Node:  -1,
					Name:  fmt.Sprintf("sweep.%s.n%d", proto, n),
					Proto: proto.String(),
					Axis:  obs.AxisOther,
					Dur:   uint64(pt.Values[2*pi]),
					Phase: obs.PhaseComplete,
				})
			}
		}
		if o.Metrics != "" {
			if err := cli.WriteMetrics(o.Metrics, stdout, hub.Metrics); err != nil {
				fmt.Fprintln(stderr, "sweep:", err)
				return 1
			}
		}
		if o.TraceOut != "" {
			if err := cli.WriteTo(o.TraceOut, stdout, hub.Trace.WriteChromeTrace); err != nil {
				fmt.Fprintln(stderr, "sweep:", err)
				return 1
			}
		}
		cli.WarnDropped(stderr, "sweep", hub, cli.Truncated)
	}

	title := fmt.Sprintf("Messaging cost vs packet size: %d-word message, ooo=%.2f, ack group %d",
		*words, *ooo, *ackGroup)
	if *csv {
		fmt.Fprint(stdout, report.CSV("packet_words", names, points))
		return 0
	}
	fmt.Fprint(stdout, report.Series(title, "n", names, points))
	return 0
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad packet size %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no packet sizes")
	}
	return out, nil
}
