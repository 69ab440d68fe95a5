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
// output is byte-identical across -parallel worker counts and the dense vs
// event-driven flit engines.
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
//	critpath -parallel 8 -dense       # flit grid workers / dense reference engine
//	critpath -timeline-out tl.json    # windowed metrics timeline (.csv for CSV)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"msglayer/internal/critpath"
	"msglayer/internal/experiments"
	"msglayer/internal/flitnet"
	"msglayer/internal/network"
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

// flitModes is the fixed routing-mode grid of the flit section.
var flitModes = []flitnet.Mode{flitnet.Deterministic, flitnet.Adaptive, flitnet.CR}

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
	dense := fs.Bool("dense", false, "use the dense reference flit engine (report is byte-identical)")
	timelineOut := fs.String("timeline-out", "",
		"run the selected protocol scenarios into one shared hub, sampling windowed metric deltas on the round clock, and write the timeline (\"-\" = stdout; a .csv suffix selects CSV, otherwise JSON)")
	timelineInterval := fs.Int("timeline-interval", 16, "timeline window width in machine rounds")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "critpath: per-message critical-path latency attribution")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := parsweep.ValidatePositiveFlags(fs, "parallel"); err != nil {
		fmt.Fprintln(stderr, "critpath:", err)
		return 1
	}
	if *timelineInterval < 1 {
		fmt.Fprintln(stderr, "critpath: -timeline-interval must be >= 1")
		return 2
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
		if d := h.Trace.Dropped(); d > 0 {
			fmt.Fprintf(stderr, "critpath: warning: %s: trace dropped %d events; report is partial and skips reconciliation\n", name, d)
		} else if err := critpath.Reconcile(h); err != nil {
			fmt.Fprintf(stderr, "critpath: %s: reconciliation failed: %v\n", name, err)
			return 1
		}
		runs = append(runs, scenarioRun{name, h, critpath.Analyze(h.Trace.Events())})
	}

	// Flit section: each (mode, load) point is an independent deterministic
	// run with its own hub, so the grid fans across a worker pool; results
	// are consumed in input order, making the report byte-identical at any
	// worker count.
	type flitPoint struct {
		mode flitnet.Mode
		load float64
		hub  *obs.Hub
	}
	var points []flitPoint
	if !*noFlit {
		workers := parsweep.Workers(*parallel)
		points = make([]flitPoint, len(flitModes)*len(flitLoads))
		err := parsweep.Run(workers, len(points), func(i int) error {
			mode, load := flitModes[i/len(flitLoads)], flitLoads[i%len(flitLoads)]
			h, err := runFlitPoint(mode, load, *cycles, *dense)
			if err != nil {
				return err
			}
			points[i] = flitPoint{mode, load, h}
			return nil
		})
		if err != nil {
			fmt.Fprintln(stderr, "critpath:", err)
			return 1
		}
		for _, p := range points {
			if d := p.hub.Trace.Dropped(); d > 0 {
				fmt.Fprintf(stderr, "critpath: warning: flit %s load %.2f: trace dropped %d events; report is partial and skips reconciliation\n", p.mode, p.load, d)
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
	if *timelineOut != "" {
		tl, err := runTimeline(scenarios, *words, uint64(*timelineInterval))
		if err != nil {
			fmt.Fprintln(stderr, "critpath:", err)
			return 1
		}
		render := func(w io.Writer) error {
			if strings.HasSuffix(*timelineOut, ".csv") {
				return timeline.WriteCSV(w, tl)
			}
			return timeline.WriteJSON(w, tl)
		}
		if err := writeTo(*timelineOut, stdout, render); err != nil {
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
		if err := writeTo(*flowOut, stdout, func(w io.Writer) error {
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

// runTimeline runs the scenario sequence into one shared hub with a
// timeline sampler on the round clock and returns the reconciled timeline.
func runTimeline(scenarios []string, words int, interval uint64) (*timeline.Timeline, error) {
	h := obs.NewHub()
	sampler := timeline.New(h.Metrics, timeline.Config{Interval: interval})
	h.SetTickListener(sampler.Advance)
	experiments.SetObserver(h)
	defer experiments.SetObserver(nil)
	for _, name := range scenarios {
		if _, err := experiments.RunCanonical(name, words); err != nil {
			return nil, fmt.Errorf("timeline: %s: %w", name, err)
		}
	}
	// A scenario that never ticks the round clock (single-packet delivery)
	// still closes one window holding all its deltas.
	end := h.Round()
	if end == 0 {
		end = 1
	}
	sampler.Flush(end)
	// Window deltas must sum exactly to the final registry totals.
	if err := sampler.Reconcile(); err != nil {
		return nil, fmt.Errorf("timeline reconciliation: %w", err)
	}
	return sampler.Snapshot(), nil
}

// runFlitPoint runs one (mode, load) point of the transit grid on a fat
// tree, with a FlitScope capturing every worm's lifetime into its own hub.
func runFlitPoint(mode flitnet.Mode, load float64, cycles int, dense bool) (*obs.Hub, error) {
	topo, err := topology.NewFatTree(4, 2)
	if err != nil {
		return nil, err
	}
	net, err := flitnet.New(flitnet.Config{
		Topology: topo, Mode: mode,
		BufferFlits: 3, InjectQueue: 8,
		DenseReference: dense,
	})
	if err != nil {
		return nil, err
	}
	h := obs.NewHub()
	net.SetFlitObserver(h.FlitScope())
	nodes := net.Nodes()
	gen, err := workload.NewGenerator(workload.Uniform{}, nodes, load, 1)
	if err != nil {
		return nil, err
	}
	for c := 0; c < cycles; c++ {
		for _, a := range gen.Cycle() {
			// Backpressured injections are part of the measurement.
			_ = net.Inject(network.Packet{
				Src: a.Src, Dst: a.Dst,
				Data: []network.Word{network.Word(c)},
			})
		}
		net.Tick(1)
	}
	net.TickUntilQuiet(200000)
	for node := 0; node < nodes; node++ {
		for {
			if _, ok := net.TryRecv(node); !ok {
				break
			}
		}
	}
	return h, nil
}

// writeTo renders into a file, or stdout for "-". A failed render removes
// the file rather than leaving a truncated dump behind.
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
