// Command netload runs the classic interconnection-network evaluation —
// offered load versus delivered throughput and latency — on the flit-level
// wormhole simulator, for deterministic, adaptive, and Compressionless
// routing. It quantifies the hardware half of the paper's Section 5
// trade-off: adaptive multipath improves the network's own numbers, while
// (as msgbench's ablations show) its out-of-order delivery costs the
// messaging layer instructions.
//
// Usage:
//
//	netload                            # fat tree 4-ary 2-tree, all modes
//	netload -topology mesh -w 4 -h 4   # 4x4 mesh
//	netload -loads 0.05,0.1,0.2        # custom offered loads (pkts/node/cycle)
//	netload -cycles 4000 -csv
//	netload -parallel 8                # fan the load/mode grid over 8 workers
//	netload -metrics m.txt             # dump flit-level metrics ("-" = stdout)
//	netload -trace-out t.json          # Chrome trace with one span per point
//	netload -timeline-out tl.json      # windowed metrics timeline per point (.csv for CSV)
//	netload -cpuprofile cpu.out        # pprof CPU profile of the sweep
//	netload -memprofile mem.out        # pprof allocation profile at exit
//	netload -dense                     # dense reference engine (baseline)
//	netload -critpath cp.txt           # per-worm critical-path attribution ("-" = stdout)
//	netload -slo rules.yaml            # evaluate SLO rules per point; exit 3 on violation
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"msglayer/internal/critpath"
	"msglayer/internal/flitnet"
	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/obs/diff"
	"msglayer/internal/obs/monitor"
	"msglayer/internal/obs/monitor/blame"
	"msglayer/internal/obs/serve"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/parsweep"
	"msglayer/internal/prof"
	"msglayer/internal/report"
	"msglayer/internal/topology"
	"msglayer/internal/twin"
	"msglayer/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("netload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topoArg := fs.String("topology", "fattree", "fattree or mesh")
	k := fs.Int("k", 4, "fat tree arity")
	levels := fs.Int("levels", 2, "fat tree levels")
	w := fs.Int("w", 4, "mesh width")
	h := fs.Int("h", 4, "mesh height")
	loadsArg := fs.String("loads", "0.02,0.05,0.1,0.2,0.3", "offered loads, packets/node/cycle")
	cycles := fs.Int("cycles", 2000, "measurement cycles per point")
	seed := fs.Int64("seed", 1, "traffic seed")
	csvOut := fs.Bool("csv", false, "emit CSV")
	vcs := fs.Int("vc", 1, "virtual channels (adaptive mesh needs >= 2)")
	patternArg := fs.String("pattern", "uniform",
		"traffic pattern: uniform, hotspot[:node:permille], transpose, bitcomplement, neighbor")
	parallel := fs.Int("parallel", 0, "worker goroutines for the sweep (0 = GOMAXPROCS, 1 = serial)")
	metricsOut := fs.String("metrics", "", "dump flit-level metrics to a file (\"-\" = stdout)")
	traceOut := fs.String("trace-out", "", "dump a Chrome trace-event JSON, one span per measure point (\"-\" = stdout)")
	serveAddr := fs.String("serve", "",
		"serve live observability on this address (/metrics, /snapshot, /trace, /debug/pprof/) during the sweep, then until interrupted; SIGINT shuts down cleanly")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memProfile := fs.String("memprofile", "", "write a pprof allocation profile to this file at exit")
	dense := fs.Bool("dense", false,
		"use the retained dense reference engine (scan every lane every cycle) instead of the event-driven scheduler; results are byte-identical, only speed differs")
	critpathOut := fs.String("critpath", "",
		"trace every worm's transit and write a per-message critical-path attribution report (\"-\" = stdout); reconciled exactly against per-point counters")
	timelineOut := fs.String("timeline-out", "",
		"sample every point's metrics into simulated-cycle windows and write the timelines (\"-\" = stdout; a .csv suffix selects CSV, otherwise JSON); adds a per-phase analysis to the text report")
	timelineInterval := fs.Int("timeline-interval", 100, "timeline window width in simulated cycles")
	twinCols := fs.Bool("twin", false,
		"append the analytic twin's closed-form predicted latency and its error vs the measured value per mode (twin-lat and twin-err% columns; the twin is calibrated on uniform traffic)")
	baselineOut := fs.String("baseline", "",
		"emit the paper's baseline-vs-CR comparison (Figure 6) as an obsdiff report: per-load deterministic-routing points diffed against their CR points, link by link (\"-\" = stdout; .json/.csv suffixes select the format, otherwise text)")
	sloRules := fs.String("slo", "",
		"evaluate SLO rules (JSON/YAML file, or \"canonical\") against every point's windowed timeline and exit 3 if any alert fired; samples each point like -timeline-out")
	sloOut := fs.String("slo-out", "-",
		"SLO alert report destination (\"-\" = stdout; .json/.csv suffixes select the format, otherwise text)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "netload: offered load vs throughput/latency on the flit simulator")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := parsweep.ValidatePositiveFlags(fs, "parallel"); err != nil {
		fmt.Fprintln(stderr, "netload:", err)
		return 1
	}

	loads, err := parseLoads(*loadsArg)
	if err != nil {
		fmt.Fprintln(stderr, "netload:", err)
		return 1
	}
	pattern, err := workload.ByName(*patternArg)
	if err != nil {
		fmt.Fprintln(stderr, "netload:", err)
		return 1
	}
	// Rules load before the sweep so a bad rules file fails fast, not after
	// minutes of simulation.
	var rules *monitor.RuleSet
	if *sloRules != "" {
		if rules, err = monitor.LoadRules(*sloRules); err != nil {
			fmt.Fprintln(stderr, "netload:", err)
			return 1
		}
	}
	// Profiles cover the whole run and finalize on every exit path; a
	// profile that cannot be written is reported and removed, never left
	// truncated (same contract as -metrics/-trace-out).
	if *cpuProfile != "" {
		stop, err := prof.StartCPU(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "netload:", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(stderr, "netload:", err)
				code = 1
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := prof.WriteHeap(*memProfile); err != nil {
				fmt.Fprintln(stderr, "netload:", err)
				code = 1
			}
		}()
	}
	mkTopo := func() (topology.Topology, error) {
		switch *topoArg {
		case "fattree":
			return topology.NewFatTree(*k, *levels)
		case "mesh":
			return topology.NewMesh(*w, *h)
		default:
			return nil, fmt.Errorf("unknown topology %q", *topoArg)
		}
	}

	workers := parsweep.Workers(*parallel)

	modes := []flitnet.Mode{flitnet.Deterministic, flitnet.Adaptive, flitnet.CR}
	var names []string
	for _, m := range modes {
		names = append(names, m.String()+" thru", m.String()+" lat")
		if *twinCols {
			names = append(names, m.String()+" twin-lat", m.String()+" twin-err%")
		}
	}
	// twinRegime maps a routing mode onto the twin's regime key for the
	// configured topology shape; evaluated per report row under -twin.
	twinRegime := func(mode flitnet.Mode) twin.Regime {
		r := twin.Regime{Topology: *topoArg, Mode: mode, VCs: *vcs}
		if *topoArg == "mesh" {
			r.A, r.B = *w, *h
		} else {
			r.A, r.B = *k, *levels
		}
		return r
	}

	var hub *obs.Hub
	if *metricsOut != "" || *traceOut != "" || *serveAddr != "" {
		hub = obs.NewHub()
	}

	// With -serve, live endpoints answer throughout the sweep and SIGINT
	// aborts the remaining points and shuts the server down cleanly.
	ctx := context.Background()
	var srv *serve.Server
	if *serveAddr != "" {
		srv = serve.New(hub)
		if err := srv.Start(*serveAddr); err != nil {
			fmt.Fprintln(stderr, "netload:", err)
			return 1
		}
		var cancel context.CancelFunc
		ctx, cancel = signal.NotifyContext(ctx, os.Interrupt)
		defer cancel()
		defer func() {
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer scancel()
			if err := srv.Shutdown(sctx); err != nil {
				fmt.Fprintln(stderr, "netload: shutdown:", err)
			}
		}()
		fmt.Fprintf(stderr, "netload: observability on http://%s (SIGINT to stop)\n", srv.Addr())
	}
	// sync routes hub mutations through the server's lock when serving.
	sync := func(fn func()) {
		if srv != nil {
			srv.Sync(fn)
		} else {
			fn()
		}
	}

	// Each (load, mode) point is an independent deterministic run — fresh
	// topology, network, and generator, same seed — so the grid fans across
	// a worker pool. Every job writes only its own slot; the hub and the
	// report consume the slots in input order afterwards, which makes the
	// output byte-identical at any worker count (-parallel 1 is the serial
	// loop this replaces).
	type pointResult struct {
		thru, lat float64
		st        flitnet.Stats
		idle      uint64
		hub       *obs.Hub           // per-point span-traced hub, -critpath only
		tl        *timeline.Timeline // per-point windowed timeline, -timeline-out only
		metrics   []obs.JSONMetric   // per-point registry export, -baseline only
	}
	if *timelineInterval < 1 {
		fmt.Fprintln(stderr, "netload: -timeline-interval must be >= 1")
		return 1
	}
	jobs := len(loads) * len(modes)
	results := make([]pointResult, jobs)
	prefix, err := parsweep.RunCtx(ctx, workers, jobs, func(i int) error {
		load, mode := loads[i/len(modes)], modes[i%len(modes)]
		topo, err := mkTopo()
		if err != nil {
			return err
		}
		// With -critpath or -timeline-out each point observes itself into
		// its own hub, so the grid still fans across workers; reports merge
		// in input order and stay byte-identical at any worker count.
		var pointHub *obs.Hub
		var scope *obs.FlitScope
		if *critpathOut != "" || *timelineOut != "" || *baselineOut != "" || *sloRules != "" {
			pointHub = obs.NewHub()
			scope = pointHub.FlitScope()
		}
		var sampler *timeline.Sampler
		if *timelineOut != "" || *sloRules != "" {
			sampler = timeline.New(pointHub.Metrics, timeline.Config{Interval: uint64(*timelineInterval)})
		}
		thru, lat, st, idle, err := measure(topo, mode, *vcs, pattern, load, *cycles, *seed, *dense, scope, sampler)
		if err != nil {
			return err
		}
		res := pointResult{thru: thru, lat: lat, st: st, idle: idle}
		if *critpathOut != "" {
			res.hub = pointHub
		}
		if *baselineOut != "" {
			res.metrics = pointHub.Metrics.JSONMetrics()
		}
		if sampler != nil {
			// Every window's deltas must sum exactly to the point's final
			// registry totals; a sampler that cannot account for itself is
			// a bug, not a report.
			if err := sampler.Reconcile(); err != nil {
				return fmt.Errorf("%s load %.2f: timeline reconciliation: %w", mode, load, err)
			}
			res.tl = sampler.Snapshot()
		}
		results[i] = res
		return nil
	})
	if err != nil {
		fmt.Fprintln(stderr, "netload:", err)
		return 1
	}
	if prefix < jobs {
		fmt.Fprintln(stderr, "netload: interrupted, reporting completed points")
	}
	var points []report.SeriesPoint
	var idleTotal uint64
	for li := 0; li < prefix/len(modes); li++ {
		load := loads[li]
		values := make([]float64, 0, 2*len(modes))
		for mi, mode := range modes {
			res := results[li*len(modes)+mi]
			if hub != nil {
				sync(func() { recordPoint(hub, mode, load, res.st, res.idle) })
			}
			idleTotal += res.idle
			values = append(values, res.thru, res.lat)
			if *twinCols {
				pred, err := (twin.NetPoint{Regime: twinRegime(mode), Load: load, Cycles: *cycles}).PredictNet()
				if err != nil {
					fmt.Fprintln(stderr, "netload: twin:", err)
					return 1
				}
				errPct := 0.0
				if res.lat != 0 {
					errPct = (pred.MeanLatency - res.lat) / res.lat * 100
				}
				values = append(values, pred.MeanLatency, errPct)
			}
		}
		points = append(points, report.SeriesPoint{
			X:      int(load * 1000), // permille for the integer axis
			Values: values,
		})
	}

	if *critpathOut != "" {
		err := writeTo(*critpathOut, stdout, func(w io.Writer) error {
			for i := 0; i < prefix; i++ {
				res := results[i]
				if res.hub == nil {
					continue
				}
				if err := critpath.Reconcile(res.hub); err != nil {
					return fmt.Errorf("point %d (%s load %.2f): %w",
						i, modes[i%len(modes)], loads[i/len(modes)], err)
				}
				fmt.Fprintf(w, "== %s routing, load %.2f ==\n", modes[i%len(modes)], loads[i/len(modes)])
				if err := critpath.WriteText(w, critpath.Analyze(res.hub.Trace.Events())); err != nil {
					return err
				}
				fmt.Fprintln(w)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(stderr, "netload:", err)
			return 1
		}
	}

	type timelinePoint struct {
		Mode         string             `json:"mode"`
		LoadPermille int                `json:"load_permille"`
		Timeline     *timeline.Timeline `json:"timeline"`
	}
	var tlPoints []timelinePoint
	if *timelineOut != "" {
		for i := 0; i < prefix; i++ {
			if results[i].tl == nil {
				continue
			}
			tlPoints = append(tlPoints, timelinePoint{
				Mode:         modes[i%len(modes)].String(),
				LoadPermille: int(loads[i/len(modes)] * 1000),
				Timeline:     results[i].tl,
			})
		}
		err := writeTo(*timelineOut, stdout, func(w io.Writer) error {
			if strings.HasSuffix(*timelineOut, ".csv") {
				cw := csv.NewWriter(w)
				if err := cw.Write(timeline.CSVHeader("mode", "load_permille")); err != nil {
					return err
				}
				for _, p := range tlPoints {
					if err := timeline.AppendCSV(cw, []string{p.Mode, strconv.Itoa(p.LoadPermille)}, p.Timeline); err != nil {
						return err
					}
				}
				cw.Flush()
				return cw.Error()
			}
			doc := struct {
				Points []timelinePoint `json:"points"`
			}{tlPoints}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		})
		if err != nil {
			fmt.Fprintln(stderr, "netload:", err)
			return 1
		}
	}

	if *baselineOut != "" {
		// Figure 6: the baseline network (deterministic routing) against its
		// CR variant, one aligned comparison per offered load. Each point's
		// per-link flit counters diff under the engine-recorded move totals,
		// so the waterfall provably accounts for the whole traffic change.
		base := make(map[string]diff.Run)
		cr := make(map[string]diff.Run)
		for i := 0; i < prefix; i++ {
			mode := modes[i%len(modes)]
			if mode != flitnet.Deterministic && mode != flitnet.CR {
				continue
			}
			key := fmt.Sprintf("load=%04d", int(loads[i/len(modes)]*1000))
			run := diff.Run{
				Label:     mode.String() + " " + key,
				Metrics:   results[i].metrics,
				Timeline:  results[i].tl,
				FlitMoves: results[i].st.FlitMoves,
			}
			if mode == flitnet.Deterministic {
				base[key] = run
			} else {
				cr[key] = run
			}
		}
		rep := diff.CompareRunGrid("deterministic", "cr", base, cr)
		if err := rep.Reconcile(); err != nil {
			fmt.Fprintln(stderr, "netload:", err)
			return 1
		}
		render := diff.WriteText
		switch {
		case strings.HasSuffix(*baselineOut, ".json"):
			render = diff.WriteJSON
		case strings.HasSuffix(*baselineOut, ".csv"):
			render = diff.WriteCSV
		}
		err := writeTo(*baselineOut, stdout, func(w io.Writer) error { return render(w, rep) })
		if err != nil {
			fmt.Fprintln(stderr, "netload:", err)
			return 1
		}
	}

	if hub != nil {
		if *metricsOut != "" {
			if err := writeTo(*metricsOut, stdout, hub.Metrics.WritePrometheus); err != nil {
				fmt.Fprintln(stderr, "netload:", err)
				return 1
			}
		}
		if *traceOut != "" {
			if err := writeTo(*traceOut, stdout, hub.Trace.WriteChromeTrace); err != nil {
				fmt.Fprintln(stderr, "netload:", err)
				return 1
			}
		}
	}

	title := fmt.Sprintf("Delivered throughput (pkts/node/kcycle) and mean latency (cycles) vs offered load (x = load*1000), %s, %s traffic",
		*topoArg, pattern.Name())
	if *csvOut {
		fmt.Fprint(stdout, report.CSV("load_permille", names, points))
	} else {
		fmt.Fprint(stdout, report.Series(title, "load", names, points))
		fmt.Fprintf(stdout, "# idle cycles fast-forwarded: %d (event-driven engine; 0 under -dense)\n", idleTotal)
		if len(tlPoints) > 0 {
			// Per-phase overhead breakdowns: each point's run segmented into
			// warmup/steady/burst/drain from its windowed event rates.
			fmt.Fprintf(stdout, "\n# phase analysis (%d-cycle windows)\n", *timelineInterval)
			for _, p := range tlPoints {
				var b strings.Builder
				fmt.Fprintf(&b, "%s routing, load %d/1000:\n", p.Mode, p.LoadPermille)
				timeline.WritePhaseReport(&b, "  ", p.Timeline)
				fmt.Fprint(stdout, b.String())
			}
		}
	}
	// SLO evaluation replays every completed point's timeline through the
	// monitor, in input order, so the merged alert report is byte-identical
	// at any -parallel value and on either engine. The report is
	// written before the violation exit so the artifact always exists.
	sloViolated := false
	if rules != nil {
		var reports []*monitor.Report
		for i := 0; i < prefix; i++ {
			if results[i].tl == nil {
				continue
			}
			m, err := monitor.New(rules)
			if err != nil {
				fmt.Fprintln(stderr, "netload:", err)
				return 1
			}
			m.SetBlamer(blame.Compute)
			label := fmt.Sprintf("%s/load=%d", modes[i%len(modes)], int(loads[i/len(modes)]*1000))
			if err := m.Replay(results[i].tl); err != nil {
				fmt.Fprintf(stderr, "netload: slo: %s: %v\n", label, err)
				return 1
			}
			rep := m.Snapshot(label)
			reports = append(reports, rep)
			sloViolated = sloViolated || len(rep.Incidents) > 0
		}
		err := writeTo(*sloOut, stdout, func(w io.Writer) error {
			switch {
			case strings.HasSuffix(*sloOut, ".json"):
				return monitor.WriteJSONReports(w, reports)
			case strings.HasSuffix(*sloOut, ".csv"):
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
			default:
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
			}
		})
		if err != nil {
			fmt.Fprintln(stderr, "netload:", err)
			return 1
		}
	}
	if hub != nil && hub.Trace.Dropped() > 0 {
		fmt.Fprintf(stderr, "netload: warning: trace dropped %d events; exported traces are truncated\n", hub.Trace.Dropped())
	}
	if srv != nil && ctx.Err() == nil {
		// Keep the final state inspectable until the user interrupts.
		fmt.Fprintln(stderr, "netload: sweep done, still serving (SIGINT to stop)")
		<-ctx.Done()
	}
	if sloViolated {
		fmt.Fprintln(stderr, "netload: SLO violated")
		return 3
	}
	return 0
}

// measure runs one (topology, mode, pattern, load) point and returns
// delivered packets per node per kilocycle, the mean packet latency in
// cycles, the raw flit-level stats for the observability dump, and the
// cycles the event-driven engine fast-forwarded while idle. With dense set
// it runs the retained dense reference engine; the numbers are
// byte-identical either way (the differential tests hold the engines to
// that), only the wall-clock cost differs — and the dense engine never
// fast-forwards, so its idle count is always zero. A non-nil scope traces
// every worm's transit for critical-path attribution; a non-nil sampler
// rides the net's cycle listener and is flushed at the final cycle, so the
// timeline is identical whichever engine ran the point.
func measure(topo topology.Topology, mode flitnet.Mode, vcs int, pattern workload.Pattern, load float64, cycles int, seed int64, dense bool, scope *obs.FlitScope, sampler *timeline.Sampler) (float64, float64, flitnet.Stats, uint64, error) {
	net, err := flitnet.New(flitnet.Config{
		Topology:        topo,
		Mode:            mode,
		BufferFlits:     3,
		InjectQueue:     8,
		VirtualChannels: vcs,
		DenseReference:  dense,
	})
	if err != nil {
		return 0, 0, flitnet.Stats{}, 0, err
	}
	if scope != nil {
		net.SetFlitObserver(scope)
	}
	if sampler != nil {
		net.SetCycleListener(sampler.Advance)
	}
	nodes := net.Nodes()
	gen, err := workload.NewGenerator(pattern, nodes, load, seed)
	if err != nil {
		return 0, 0, flitnet.Stats{}, 0, err
	}
	for c := 0; c < cycles; c++ {
		for _, a := range gen.Cycle() {
			// Injection may backpressure at saturation; the refusal is
			// part of the measurement (offered != accepted).
			_ = net.Inject(network.Packet{
				Src: a.Src, Dst: a.Dst,
				Data: []network.Word{network.Word(c)},
			})
		}
		net.Tick(1)
	}
	// Drain what is in flight so latencies are complete.
	net.TickUntilQuiet(200000)
	for node := 0; node < nodes; node++ {
		for {
			if _, ok := net.TryRecv(node); !ok {
				break
			}
		}
	}
	if sampler != nil {
		sampler.Flush(net.Cycle())
	}
	st := net.FlitStats()
	thru := float64(st.Delivered) / float64(nodes) / float64(cycles) * 1000
	return thru, st.MeanLatency(), st, net.IdleSkipped(), nil
}

// recordPoint files one measure point's flit-level stats into the metrics
// registry, labeled by routing mode and offered load (permille), and records
// one Chrome-trace duration span per point so the sweep reads as a timeline.
func recordPoint(h *obs.Hub, mode flitnet.Mode, load float64, st flitnet.Stats, idle uint64) {
	key := func(name string) obs.Key {
		return obs.Key{
			Name:  name,
			Node:  -1,
			Proto: mode.String(),
			Event: fmt.Sprintf("load_%d", int(load*1000)),
		}
	}
	h.Metrics.Counter(key("netload_injected_total")).Add(st.Injected)
	h.Metrics.Counter(key("netload_delivered_total")).Add(st.Delivered)
	h.Metrics.Counter(key("netload_backpressure_total")).Add(st.Backpressure)
	h.Metrics.Counter(key("netload_kills_total")).Add(st.Kills)
	h.Metrics.Counter(key("netload_retries_total")).Add(st.Retries)
	h.Metrics.Counter(key("netload_flit_moves_total")).Add(st.FlitMoves)
	h.Metrics.Counter(key("netload_failed_worms_total")).Add(st.FailedWorms)
	h.Metrics.Counter(key("netload_cycles_total")).Add(st.Cycles)
	h.Metrics.Level(key("netload_latency_max_cycles")).Set(int64(st.LatencyMax))
	// The registry is integer-valued; keep three decimals of the mean.
	h.Metrics.Level(key("netload_latency_mean_millicycles")).Set(int64(st.MeanLatency() * 1000))
	// Engine-performance gauge: cycles the event-driven scheduler skipped
	// while no flit could move (always 0 under the dense reference).
	h.Metrics.Level(key("flitnet_idle_skipped")).Set(int64(idle))

	// One span per measure point, laid end to end: the span length is the
	// point's simulated cycle count, so relative widths on a perfetto
	// timeline compare drain times across modes and loads.
	h.Trace.Record(obs.TraceEvent{
		TS:    h.Trace.Now() + 1,
		Node:  -1,
		Name:  "netload." + mode.String() + ".load_" + fmt.Sprint(int(load*1000)),
		Proto: mode.String(),
		Axis:  obs.AxisOther,
		Dur:   st.Cycles,
		Phase: obs.PhaseComplete,
	})
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

func parseLoads(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || f <= 0 || f > 1 {
			return nil, fmt.Errorf("bad load %q (want 0 < load <= 1)", part)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no loads")
	}
	return out, nil
}
