// Command critpath answers the paper's "where does the time go?" question
// per message instead of in aggregate: it runs the canonical protocol
// scenarios and a small flit-level grid with causal span tracing attached,
// reconstructs every message's lifetime, and reports the exact
// decomposition of delivery time into work (by Feature axis), queueing,
// backpressure, and retransmission — plus the critical path across
// concurrent messages.
//
// Every report is cross-checked before it is printed: the per-message
// attribution must reconcile exactly with the aggregate metrics registry
// (the counters the Table 1-3 reproduction is verified against), and the
// output is byte-identical across -parallel worker counts.
//
// Usage:
//
//	critpath                          # text report, all canonical scenarios + flit grid
//	critpath -scenarios cm5-finite    # subset of protocol scenarios
//	critpath -words 256               # larger transfers
//	critpath -json                    # JSON report
//	critpath -flow flow.json          # Chrome flow-arrow trace ("-" = stdout)
//	critpath -flow-scenario cr-stream # which scenario the flow trace covers
//	critpath -noflit                  # skip the flit-level grid
//	critpath -parallel 8              # flit grid workers
//	critpath -timeline-out tl.json    # windowed metrics timeline (.csv for CSV)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"msglayer/internal/cli"
	"msglayer/internal/critpath"
	"msglayer/internal/experiments"
	"msglayer/internal/flitnet"
	"msglayer/internal/obs"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/parsweep"
	"msglayer/internal/topology"
	"msglayer/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// flitLoads is the fixed offered-load grid of the flit section.
var flitLoads = []float64{0.05, 0.2}

// partial is the WarnDropped effect for a report built from a truncated
// trace.
const partial = "report is partial and skips reconciliation"

// flitModes is the fixed routing-mode grid of the flit section.
var flitModes = []flitnet.Mode{flitnet.Deterministic, flitnet.Adaptive, flitnet.CR}

// denseEngine runs the flit section on the dense reference engine. It has
// no flag: tests set it to hold the report to the engine contract.
var denseEngine bool

// run executes the tool; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("critpath", flag.ContinueOnError)
	fs.SetOutput(stderr)
	words := fs.Int("words", 64, "transfer size in words for the protocol scenarios")
	scenariosArg := fs.String("scenarios", "all", "comma-separated canonical scenarios, or \"all\"")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	flowOut := fs.String("flow", "", "write a Chrome trace with per-message flow arrows (\"-\" = stdout)")
	flowScenario := fs.String("flow-scenario", "cm5-finite", "scenario the -flow trace covers")
	noFlit := fs.Bool("noflit", false, "skip the flit-level transit grid")
	cycles := fs.Int("cycles", 400, "cycles per flit-grid point")
	parallel := fs.Int("parallel", 0, "worker goroutines for the flit grid (0 = GOMAXPROCS, 1 = serial)")
	o := cli.NewFlags(fs)
	o.TimelineFlags("run the selected protocol scenarios into one shared hub, sampling windowed metric deltas on the round clock, and write the timeline",
		16, "machine rounds")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "critpath: per-message critical-path latency attribution")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := o.Check(); err != nil {
		fmt.Fprintln(stderr, "critpath:", err)
		return 2
	}
	if err := parsweep.ValidatePositiveFlags(fs, "parallel"); err != nil {
		fmt.Fprintln(stderr, "critpath:", err)
		return 1
	}

	scenarios := experiments.CanonicalScenarios()
	if *scenariosArg != "all" {
		scenarios = strings.Split(*scenariosArg, ",")
	}

	// Protocol section. experiments.SetObserver is process-global, so the
	// scenarios run serially, each into a fresh hub; reconciliation gates
	// every report.
	type scenarioRun struct {
		name string
		hub  *obs.Hub
		a    *critpath.Analysis
	}
	var runs []scenarioRun
	for _, name := range scenarios {
		h, err := runScenario(name, *words)
		if err != nil {
			fmt.Fprintln(stderr, "critpath:", err)
			return 1
		}
		// A trace that dropped events cannot reconcile against the
		// registry; report it as partial instead of failing the run.
		if !cli.WarnDropped(stderr, "critpath: "+name, h, partial) {
			if err := critpath.Reconcile(h); err != nil {
				fmt.Fprintf(stderr, "critpath: %s: reconciliation failed: %v\n", name, err)
				return 1
			}
		}
		runs = append(runs, scenarioRun{name, h, critpath.Analyze(h.Trace.Events())})
	}

	// Flit section: each (mode, load) point is an independent deterministic
	// run with its own hub, so the grid fans across a worker pool; results
	// are consumed in input order, making the report byte-identical at any
	// worker count.
	type flitPoint struct {
		mode    flitnet.Mode
		load    float64
		hub     *obs.Hub
		drained bool
	}
	var points []flitPoint
	if !*noFlit {
		workers := parsweep.Workers(*parallel)
		points = make([]flitPoint, len(flitModes)*len(flitLoads))
		err := parsweep.Run(workers, len(points), func(i int) error {
			mode, load := flitModes[i/len(flitLoads)], flitLoads[i%len(flitLoads)]
			h, drained, err := runFlitPoint(mode, load, *cycles)
			if err != nil {
				return err
			}
			points[i] = flitPoint{mode, load, h, drained}
			return nil
		})
		if err != nil {
			fmt.Fprintln(stderr, "critpath:", err)
			return 1
		}
		for _, p := range points {
			if !p.drained {
				fmt.Fprintf(stderr, "critpath: warning: flit %s load %.2f did not drain within 200000 cycles; its report covers only the delivered worms\n", p.mode, p.load)
			}
			if cli.WarnDropped(stderr, fmt.Sprintf("critpath: flit %s load %.2f", p.mode, p.load), p.hub, partial) {
				continue
			}
			if err := critpath.Reconcile(p.hub); err != nil {
				fmt.Fprintf(stderr, "critpath: flit %s load %.2f: reconciliation failed: %v\n", p.mode, p.load, err)
				return 1
			}
		}
	}

	// The per-scenario hubs above are fresh per run (reconciliation demands
	// it), so the timeline samples a separate pass: the same scenario
	// sequence into one shared hub, windows closing on the round clock.
	if o.TimelineOut != "" {
		tl, err := runTimeline(scenarios, *words, uint64(o.TimelineInterval))
		if err != nil {
			fmt.Fprintln(stderr, "critpath:", err)
			return 1
		}
		if err := cli.WriteTimeline(o.TimelineOut, stdout, tl); err != nil {
			fmt.Fprintln(stderr, "critpath:", err)
			return 1
		}
	}

	if *flowOut != "" {
		var src *obs.Hub
		for _, r := range runs {
			if r.name == *flowScenario {
				src = r.hub
			}
		}
		if src == nil {
			fmt.Fprintf(stderr, "critpath: -flow-scenario %q was not run (add it to -scenarios)\n", *flowScenario)
			return 1
		}
		if err := cli.WriteTo(*flowOut, stdout, func(w io.Writer) error {
			return critpath.WriteChromeFlow(w, src.Trace.Events())
		}); err != nil {
			fmt.Fprintln(stderr, "critpath:", err)
			return 1
		}
	}

	if *jsonOut {
		doc := struct {
			Scenarios map[string]json.RawMessage `json:"scenarios"`
			Flit      []json.RawMessage          `json:"flit,omitempty"`
		}{Scenarios: make(map[string]json.RawMessage)}
		for _, r := range runs {
			js, err := critpath.JSON(r.a)
			if err != nil {
				fmt.Fprintln(stderr, "critpath:", err)
				return 1
			}
			doc.Scenarios[r.name] = js
		}
		for _, p := range points {
			js, err := critpath.JSON(critpath.Analyze(p.hub.Trace.Events()))
			if err != nil {
				fmt.Fprintln(stderr, "critpath:", err)
				return 1
			}
			wrapped, err := json.Marshal(struct {
				Mode   string          `json:"mode"`
				Load   float64         `json:"load"`
				Report json.RawMessage `json:"report"`
			}{p.mode.String(), p.load, js})
			if err != nil {
				fmt.Fprintln(stderr, "critpath:", err)
				return 1
			}
			doc.Flit = append(doc.Flit, wrapped)
		}
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "critpath:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(out))
		return 0
	}

	for _, r := range runs {
		fmt.Fprintf(stdout, "== scenario %s (%d words) ==\n", r.name, *words)
		if err := critpath.WriteText(stdout, r.a); err != nil {
			fmt.Fprintln(stderr, "critpath:", err)
			return 1
		}
		fmt.Fprintln(stdout, "   (reconciled exactly against registry counters)")
		fmt.Fprintln(stdout)
	}
	for _, p := range points {
		a := critpath.Analyze(p.hub.Trace.Events())
		fmt.Fprintf(stdout, "== flit transit: %s routing, load %.2f ==\n", p.mode, p.load)
		if err := critpath.WriteText(stdout, a); err != nil {
			fmt.Fprintln(stderr, "critpath:", err)
			return 1
		}
		fmt.Fprintln(stdout, "   (reconciled exactly against registry counters)")
		fmt.Fprintln(stdout)
	}
	return 0
}

// runScenario runs one canonical scenario with span tracing into a fresh
// hub. The experiments observer is global state, so callers are serial.
func runScenario(name string, words int) (*obs.Hub, error) {
	h := obs.NewHub()
	experiments.SetObserver(h)
	defer experiments.SetObserver(nil)
	if _, err := experiments.RunCanonical(name, words); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return h, nil
}

// runTimeline runs the scenario sequence into one shared session hub with
// a timeline sampler on the round clock and returns the reconciled
// timeline.
func runTimeline(scenarios []string, words int, interval uint64) (*timeline.Timeline, error) {
	sess, err := cli.NewSession(cli.SessionConfig{Timeline: true, Interval: interval})
	if err != nil {
		return nil, err
	}
	experiments.SetObserver(sess.Hub)
	defer experiments.SetObserver(nil)
	for _, name := range scenarios {
		if _, err := experiments.RunCanonical(name, words); err != nil {
			return nil, fmt.Errorf("timeline: %s: %w", name, err)
		}
	}
	return sess.Finish()
}

// runFlitPoint runs one (mode, load) point of the transit grid on a fat
// tree, with a FlitScope capturing every worm's lifetime into its own hub,
// and reports whether the network drained.
func runFlitPoint(mode flitnet.Mode, load float64, cycles int) (*obs.Hub, bool, error) {
	topo, err := topology.NewFatTree(4, 2)
	if err != nil {
		return nil, false, err
	}
	net, err := flitnet.New(flitnet.Config{
		Topology: topo, Mode: mode,
		BufferFlits: 3, InjectQueue: 8,
		DenseReference: denseEngine,
	})
	if err != nil {
		return nil, false, err
	}
	h := obs.NewHub()
	net.SetFlitObserver(h.FlitScope())
	gen, err := workload.NewGenerator(workload.Uniform{}, net.Nodes(), load, 1)
	if err != nil {
		return nil, false, err
	}
	return h, workload.Drive(net, gen, cycles), nil
}
