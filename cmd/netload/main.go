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
//	netload -metrics m.txt             # dump flit-level metrics ("-" = stdout; .json for JSON)
//	netload -trace-out t.json          # Chrome trace with one span per point
//	netload -timeline-out tl.json      # windowed metrics timeline per point (.csv for CSV)
//	netload -cpuprofile cpu.out        # pprof CPU profile of the sweep
//	netload -memprofile mem.out        # pprof allocation profile at exit
//	netload -critpath cp.txt           # per-worm critical-path attribution ("-" = stdout; .json for JSON)
//	netload -slo rules.json            # evaluate SLO rules per point; exit 3 on violation
package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"msglayer/internal/cli"
	"msglayer/internal/critpath"
	"msglayer/internal/flitnet"
	"msglayer/internal/obs"
	"msglayer/internal/obs/diff"
	"msglayer/internal/obs/monitor"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/parsweep"
	"msglayer/internal/report"
	"msglayer/internal/topology"
	"msglayer/internal/twin"
	"msglayer/internal/workload"
)

// denseEngine runs every point on the dense reference engine. It has no
// flag: tests set it to hold the tool's output to the engine contract.
var denseEngine bool

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
	o := cli.NewFlags(fs)
	o.MetricsFlag("flit-level metrics")
	o.TraceFlag(", one span per measure point")
	o.ServeFlag("during the sweep, then until interrupted; SIGINT shuts down cleanly")
	o.ProfileFlags("the sweep")
	critpathOut := fs.String("critpath", "",
		"trace every worm's transit and write a per-message critical-path attribution report (\"-\" = stdout; a .json suffix selects JSON, otherwise text); reconciled exactly against per-point counters")
	o.TimelineFlags("sample every point's metrics into simulated-cycle windows, add a per-phase analysis to the text report, and write the timelines",
		100, "simulated cycles")
	twinCols := fs.Bool("twin", false,
		"append the analytic twin's closed-form predicted latency and its error vs the measured value per mode (twin-lat and twin-err% columns; the twin is calibrated on uniform traffic)")
	baselineOut := fs.String("baseline", "",
		"emit the paper's baseline-vs-CR comparison (Figure 6) as an obsdiff report: per-load deterministic-routing points diffed against their CR points, link by link (\"-\" = stdout; .json/.csv suffixes select the format, otherwise text)")
	o.SLOFlags("against every point's windowed timeline (sampled like -timeline-out)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "netload: offered load vs throughput/latency on the flit simulator")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := o.Check(); err != nil {
		fmt.Fprintln(stderr, "netload:", err)
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
	rules, err := o.Rules()
	if err != nil {
		fmt.Fprintln(stderr, "netload:", err)
		return 1
	}
	stopProfiles, err := o.StartProfiles()
	if err != nil {
		fmt.Fprintln(stderr, "netload:", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "netload:", err)
			code = 1
		}
	}()
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
	if o.Metrics != "" || o.TraceOut != "" || o.Serve != "" {
		hub = obs.NewHub()
	}
	// With -serve, live endpoints answer throughout the sweep and SIGINT
	// aborts the remaining points.
	srv, err := cli.Serve("netload", o.Serve, hub, nil, nil, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "netload:", err)
		return 1
	}
	defer srv.Close()

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
		critpath  []byte             // per-point rendered report, -critpath only
		cpErr     error              // the point's reconciliation or rendering failure
		tl        *timeline.Timeline // per-point windowed timeline, -timeline-out only
		metrics   []obs.JSONMetric   // per-point registry export, -baseline only
		drained   bool
	}
	cpJSON := cli.Format(*critpathOut) == "json"
	jobs := len(loads) * len(modes)
	results := make([]pointResult, jobs)
	prefix, err := parsweep.RunCtx(srv.Context(), workers, jobs, func(i int) error {
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
		if *critpathOut != "" || o.TimelineOut != "" || *baselineOut != "" || rules != nil {
			pointHub = obs.NewHub()
			scope = pointHub.FlitScope()
		}
		var sampler *timeline.Sampler
		if o.TimelineOut != "" || rules != nil {
			sampler = timeline.New(pointHub.Metrics, timeline.Config{Interval: uint64(o.TimelineInterval)})
		}
		thru, lat, st, idle, drained, err := measure(topo, mode, *vcs, pattern, load, *cycles, *seed, scope, sampler)
		if err != nil {
			return err
		}
		res := pointResult{thru: thru, lat: lat, st: st, idle: idle, drained: drained}
		if *critpathOut != "" {
			// Analyzing here keeps only the rendered report, so the point's
			// trace is freed with its hub instead of living until the grid
			// ends.
			res.critpath, res.cpErr = pointCritpath(pointHub, cpJSON)
		}
		if *baselineOut != "" {
			res.metrics = pointHub.Metrics.JSONMetrics()
		}
		if sampler != nil {
			// Every window's deltas must sum exactly to the point's final
			// registry totals; a sampler that cannot account for itself is
			// a bug, not a report. st.Cycles is the net's clock after the
			// drain, the cycle the sampler rode.
			if res.tl, err = sampler.Finish(st.Cycles); err != nil {
				return fmt.Errorf("%s load %.2f: timeline reconciliation: %w", mode, load, err)
			}
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
			if !res.drained {
				fmt.Fprintf(stderr, "netload: warning: %s load %.2f did not drain within 200000 cycles; its throughput and latency cover only the delivered packets\n", mode, load)
			}
			if hub != nil {
				srv.Sync(func() { recordPoint(hub, mode, load, res.st, res.idle) })
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
		// A .json destination gets every point's report in point order, in
		// the {"flit": [...]} shape obsdiff loads, with json.MarshalIndent's
		// bytes for that document; otherwise text sections. Each report is
		// re-indented into place and dropped in turn, so the document is
		// never held whole.
		var indented bytes.Buffer
		err := cli.WriteTo(*critpathOut, stdout, func(w io.Writer) error {
			if cpJSON {
				if _, err := io.WriteString(w, critpathJSONHead); err != nil {
					return err
				}
			}
			for i := 0; i < prefix; i++ {
				res := &results[i]
				mode, load := modes[i%len(modes)], loads[i/len(modes)]
				if res.cpErr != nil {
					return fmt.Errorf("point %d (%s load %.2f): %w", i, mode, load, res.cpErr)
				}
				if cpJSON {
					if err := writeFlitReport(w, &indented, i > 0, mode.String(), load, res.critpath); err != nil {
						return err
					}
				} else {
					fmt.Fprintf(w, "== %s routing, load %.2f ==\n", mode, load)
					if _, err := w.Write(res.critpath); err != nil {
						return err
					}
					fmt.Fprintln(w)
				}
				res.critpath = nil
			}
			if !cpJSON {
				return nil
			}
			_, err := io.WriteString(w, critpathJSONTail(prefix))
			return err
		})
		if err != nil {
			fmt.Fprintln(stderr, "netload:", err)
			return 1
		}
	}

	type timelinePoint struct {
		Mode         string
		LoadPermille int
		Timeline     *timeline.Timeline
	}
	var tlPoints []timelinePoint
	if o.TimelineOut != "" {
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
		err := cli.WriteTo(o.TimelineOut, stdout, func(w io.Writer) error {
			if cli.Format(o.TimelineOut) == "csv" {
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
			// {"points": [{mode, load_permille, timeline}, ...]}, laid out
			// byte for byte as json.Encoder with a two-space indent lays it
			// out; each timeline sits three levels deep. Points are written
			// as they are rendered, so only one is ever buffered.
			b := []byte("{\n  \"points\": ")
			if len(tlPoints) == 0 {
				b = append(b, "null"...)
			} else {
				b = append(b, '[')
				for i, p := range tlPoints {
					if i > 0 {
						b = append(b, ',')
					}
					b = timeline.AppendJSONString(append(b, "\n    {\n      \"mode\": "...), p.Mode)
					b = strconv.AppendInt(append(b, ",\n      \"load_permille\": "...), int64(p.LoadPermille), 10)
					b = timeline.AppendJSON(append(b, ",\n      \"timeline\": "...), p.Timeline, "      ")
					if _, err := w.Write(append(b, "\n    }"...)); err != nil {
						return err
					}
					b = b[:0]
				}
				b = append(b, "\n  ]"...)
			}
			_, err := w.Write(append(b, "\n}\n"...))
			return err
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
		switch cli.Format(*baselineOut) {
		case "json":
			render = diff.WriteJSON
		case "csv":
			render = diff.WriteCSV
		}
		err := cli.WriteTo(*baselineOut, stdout, func(w io.Writer) error { return render(w, rep) })
		if err != nil {
			fmt.Fprintln(stderr, "netload:", err)
			return 1
		}
	}

	if hub != nil {
		if o.Metrics != "" {
			if err := cli.WriteMetrics(o.Metrics, stdout, hub.Metrics); err != nil {
				fmt.Fprintln(stderr, "netload:", err)
				return 1
			}
		}
		if o.TraceOut != "" {
			if err := cli.WriteTo(o.TraceOut, stdout, hub.Trace.WriteChromeTrace); err != nil {
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
		fmt.Fprintf(stdout, "# idle cycles fast-forwarded: %d (event-driven engine)\n", idleTotal)
		if len(tlPoints) > 0 {
			// Per-phase overhead breakdowns: each point's run segmented into
			// warmup/steady/burst/drain from its windowed event rates.
			fmt.Fprintf(stdout, "\n# phase analysis (%d-cycle windows)\n", o.TimelineInterval)
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
	// at any -parallel value. The report is
	// written before the violation exit so the artifact always exists.
	sloViolated := false
	if rules != nil {
		var reports []*monitor.Report
		for i := 0; i < prefix; i++ {
			if results[i].tl == nil {
				continue
			}
			label := fmt.Sprintf("%s/load=%d", modes[i%len(modes)], int(loads[i/len(modes)]*1000))
			rep, err := cli.Replay(rules, false, label, results[i].tl)
			if err != nil {
				fmt.Fprintln(stderr, "netload: slo:", err)
				return 1
			}
			reports = append(reports, rep)
			sloViolated = sloViolated || len(rep.Incidents) > 0
		}
		if err := cli.WriteReports(o.SLOOut, stdout, cli.Format(o.SLOOut), reports); err != nil {
			fmt.Fprintln(stderr, "netload:", err)
			return 1
		}
	}
	if hub != nil {
		cli.WarnDropped(stderr, "netload", hub, cli.Truncated)
	}
	srv.Hold("sweep done")
	if sloViolated {
		fmt.Fprintln(stderr, "netload: SLO violated")
		return 3
	}
	return 0
}

// critpathJSONHead and critpathJSONTail bracket the elements of the
// -critpath JSON document's "flit" array, whose bytes are those
// json.MarshalIndent(doc, "", "  ") gives the whole document, plus a
// newline.
const critpathJSONHead = "{\n  \"flit\": ["

func critpathJSONTail(points int) string {
	if points == 0 {
		return "]\n}\n"
	}
	return "\n  ]\n}\n"
}

// writeFlitReport writes one element of the -critpath JSON document's
// "flit" array, preceded by a comma unless it is the first: the mode and
// load marshaled, the report re-indented to the element's depth through
// buf.
func writeFlitReport(w io.Writer, buf *bytes.Buffer, comma bool, mode string, load float64, report []byte) error {
	m, err := json.Marshal(mode)
	if err != nil {
		return err
	}
	l, err := json.Marshal(load)
	if err != nil {
		return err
	}
	buf.Reset()
	if comma {
		buf.WriteByte(',')
	}
	fmt.Fprintf(buf, "\n    {\n      \"mode\": %s,\n      \"load\": %s,\n      \"report\": ", m, l)
	if err := json.Indent(buf, report, "      ", "  "); err != nil {
		return err
	}
	buf.WriteString("\n    }")
	_, err = w.Write(buf.Bytes())
	return err
}

// pointCritpath reconciles one point's trace against its counters and
// renders its critical-path report: the JSON document when asJSON is set,
// the text report otherwise.
func pointCritpath(h *obs.Hub, asJSON bool) ([]byte, error) {
	if err := critpath.Reconcile(h); err != nil {
		return nil, err
	}
	a := critpath.Analyze(h.Trace.Events())
	if asJSON {
		return critpath.JSON(a)
	}
	var b bytes.Buffer
	err := critpath.WriteText(&b, a)
	return b.Bytes(), err
}

// measure runs one (topology, mode, pattern, load) point and returns
// delivered packets per node per kilocycle, the mean packet latency in
// cycles, the raw flit-level stats for the observability dump, the cycles
// the event-driven engine fast-forwarded while idle, and whether the
// network drained. A non-nil scope traces every worm's transit for
// critical-path attribution; a non-nil sampler rides the net's cycle
// listener.
func measure(topo topology.Topology, mode flitnet.Mode, vcs int, pattern workload.Pattern, load float64, cycles int, seed int64, scope *obs.FlitScope, sampler *timeline.Sampler) (thru, lat float64, st flitnet.Stats, idle uint64, drained bool, err error) {
	net, err := flitnet.New(flitnet.Config{
		Topology:        topo,
		Mode:            mode,
		BufferFlits:     3,
		InjectQueue:     8,
		VirtualChannels: vcs,
		DenseReference:  denseEngine,
	})
	if err != nil {
		return 0, 0, st, 0, false, err
	}
	if scope != nil {
		net.SetFlitObserver(scope)
	}
	if sampler != nil {
		net.SetCycleListener(sampler.Advance)
	}
	gen, err := workload.NewGenerator(pattern, net.Nodes(), load, seed)
	if err != nil {
		return 0, 0, st, 0, false, err
	}
	drained = workload.Drive(net, gen, cycles)
	st = net.FlitStats()
	thru = float64(st.Delivered) / float64(net.Nodes()) / float64(cycles) * 1000
	return thru, st.MeanLatency(), st, net.IdleSkipped(), drained, nil
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
	// while no flit could move.
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
