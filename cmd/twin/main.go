// Command twin evaluates the closed-form analytic twin of the simulator:
// O(1) predictions of flit-network behaviour and protocol instruction
// counts, and the calibration harness that keeps those predictions honest
// by sweeping them against real simulation runs.
//
// Usage:
//
//	twin                                   # predict the default net point
//	twin -topology mesh -w 4 -h 4 -mode cr -load 0.15
//	twin -proto cm5-stream -words 256      # protocol instruction prediction
//	twin -json                             # prediction as JSON
//	twin -calibrate                        # full twin-vs-simulator grid report
//	twin -calibrate -csv                   # ... as CSV (or -json)
//	twin -record twin.json                 # calibrate and write the JSON baseline
//	twin -compare twin.json                # calibrate and gate against the baseline
//	twin -fit                              # regenerate the tables.go knot tables
//	twin -speedup -speedup-floor 10000     # measure and gate the twin's speedup
//	twin -calibrate -parallel 8            # sweep workers (report is byte-identical)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"msglayer/internal/parsweep"
	"msglayer/internal/twin"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("twin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topoArg := fs.String("topology", "fattree", "fattree or mesh")
	k := fs.Int("k", 4, "fat tree arity")
	levels := fs.Int("levels", 2, "fat tree levels")
	w := fs.Int("w", 4, "mesh width")
	h := fs.Int("h", 4, "mesh height")
	modeArg := fs.String("mode", "deterministic", "routing mode: deterministic, adaptive, or cr")
	vcs := fs.Int("vc", 1, "virtual channels")
	load := fs.Float64("load", 0.1, "offered load, packets/node/cycle")
	cycles := fs.Int("cycles", twin.CalCycles, "measurement cycles the count predictions scale to")
	proto := fs.String("proto", "",
		"predict a protocol scenario instead of a network point: single, cm5-finite, cm5-stream, cr-finite, or cr-stream")
	words := fs.Int("words", 64, "transfer size for -proto, words")
	jsonOut := fs.Bool("json", false, "emit JSON")
	csvOut := fs.Bool("csv", false, "emit CSV (calibration report only)")
	calibrate := fs.Bool("calibrate", false,
		"sweep twin-vs-simulator across the committed grid and print the calibration report (byte-identical at any -parallel value and engine)")
	record := fs.String("record", "", "calibrate and write the JSON accuracy baseline to this file")
	compare := fs.String("compare", "", "calibrate and gate against the committed baseline in this file (exit 1 on any drift)")
	fit := fs.Bool("fit", false, "re-simulate the knot loads and print the regenerated tables.go knot tables")
	speedup := fs.Bool("speedup", false, "measure twin evaluation time against simulating the same point")
	speedupFloor := fs.Float64("speedup-floor", 0, "with -speedup, fail unless the measured factor reaches this floor")
	parallel := fs.Int("parallel", 0, "worker goroutines for the simulation sweep (0 = GOMAXPROCS, 1 = serial)")
	dense := fs.Bool("dense", false,
		"simulate with the dense reference engine instead of the event-driven scheduler; results are byte-identical, only speed differs")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "twin: O(1) analytic predictions of the simulator, with calibration gating")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := parsweep.ValidatePositiveFlags(fs, "parallel"); err != nil {
		fmt.Fprintln(stderr, "twin:", err)
		return 1
	}
	modes := 0
	for _, on := range []bool{*calibrate, *record != "", *compare != "", *fit, *speedup} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(stderr, "twin: -calibrate, -record, -compare, -fit, and -speedup are mutually exclusive")
		return 1
	}

	opt := twin.Options{Parallel: *parallel, Dense: *dense}
	// Worker accounting goes to stderr: calibration stdout must stay
	// byte-identical across -parallel values, since CI diffs it.
	if modes > 0 {
		fmt.Fprintf(stderr, "# workers: %d\n", parsweep.Workers(*parallel))
	}

	switch {
	case *fit:
		src, err := twin.Fit(opt)
		if err != nil {
			fmt.Fprintln(stderr, "twin:", err)
			return 1
		}
		fmt.Fprint(stdout, src)
		return 0
	case *speedup:
		return runSpeedup(opt, *speedupFloor, stdout, stderr)
	case *calibrate, *record != "", *compare != "":
		return runCalibration(opt, *record, *compare, *jsonOut, *csvOut, stdout, stderr)
	}
	if *proto != "" {
		return predictProto(*proto, *words, *jsonOut, stdout, stderr)
	}
	return predictNet(*topoArg, *k, *levels, *w, *h, *modeArg, *vcs, *load, *cycles, *jsonOut, stdout, stderr)
}

// predictNet evaluates one flit-network operating point.
func predictNet(topo string, k, levels, w, h int, modeArg string, vcs int, load float64, cycles int, jsonOut bool, stdout, stderr io.Writer) int {
	mode, err := twin.ParseMode(modeArg)
	if err != nil {
		fmt.Fprintln(stderr, "twin:", err)
		return 1
	}
	r := twin.Regime{Topology: topo, Mode: mode, VCs: vcs}
	switch topo {
	case "fattree":
		r.A, r.B = k, levels
	case "mesh":
		r.A, r.B = w, h
	default:
		fmt.Fprintf(stderr, "twin: unknown topology %q\n", topo)
		return 1
	}
	pt := twin.NetPoint{Regime: r, Load: load, Cycles: cycles}
	p, err := pt.PredictNet()
	if err != nil {
		fmt.Fprintln(stderr, "twin:", err)
		return 1
	}
	if jsonOut {
		return emitJSON(stdout, stderr, struct {
			Point  string  `json:"point"`
			Load   float64 `json:"load"`
			Cycles int     `json:"cycles"`
			twin.NetPrediction
		}{r.String(), load, cycles, p})
	}
	fmt.Fprintln(stdout, "analytic twin prediction — closed form, no simulation")
	fmt.Fprintf(stdout, "point:          %s load %g cycles %d\n", r, load, cycles)
	fmt.Fprintf(stdout, "calibrated:     %v\n", p.Calibrated)
	fmt.Fprintf(stdout, "mean latency:   %.4f cycles\n", p.MeanLatency)
	fmt.Fprintf(stdout, "base latency:   %.4f cycles\n", p.BaseLatency)
	fmt.Fprintf(stdout, "contention:     %.3fx\n", p.Contention)
	fmt.Fprintf(stdout, "throughput:     %.4f pkts/node/kcycle\n", p.Throughput)
	fmt.Fprintf(stdout, "delivered:      %d packets\n", p.Delivered)
	fmt.Fprintf(stdout, "flit moves:     %d\n", p.FlitMoves)
	fmt.Fprintf(stdout, "total cycles:   %d (incl. drain)\n", p.Cycles)
	fmt.Fprintf(stdout, "mean links:     %.4f\n", p.MeanLinks)
	fmt.Fprintf(stdout, "worm flits:     %d\n", p.WormFlits)
	if !p.Calibrated {
		fmt.Fprintln(stdout, "note: uncalibrated shape — structural transfer from a same-mode calibrated regime")
	}
	return 0
}

// predictProto evaluates one protocol scenario.
func predictProto(scenario string, words int, jsonOut bool, stdout, stderr io.Writer) int {
	pt := twin.ProtoPoint{Scenario: scenario, Words: words}
	p, err := pt.PredictProto()
	if err != nil {
		fmt.Fprintln(stderr, "twin:", err)
		return 1
	}
	if jsonOut {
		return emitJSON(stdout, stderr, struct {
			Scenario string `json:"scenario"`
			Words    int    `json:"words"`
			twin.ProtoPrediction
		}{scenario, words, p})
	}
	fmt.Fprintln(stdout, "analytic twin prediction — closed form, no simulation")
	fmt.Fprintf(stdout, "point:              %s words %d\n", scenario, words)
	fmt.Fprintf(stdout, "total instructions: %d\n", p.Total)
	fmt.Fprintf(stdout, "overhead fraction:  %.4f\n", p.Overhead)
	fmt.Fprintf(stdout, "hardware packets:   %d\n", p.Packets)
	fmt.Fprintln(stdout, "note: exact — reproduces the simulator's canonical-scenario totals bit for bit")
	return 0
}

// runCalibration handles -calibrate, -record, and -compare.
func runCalibration(opt twin.Options, record, compare string, jsonOut, csvOut bool, stdout, stderr io.Writer) int {
	rep, err := twin.Calibrate(opt)
	if err != nil {
		fmt.Fprintln(stderr, "twin:", err)
		return 1
	}
	if err := rep.Check(twin.DefaultThresholds()); err != nil {
		fmt.Fprintln(stderr, "twin:", err)
		return 1
	}
	switch {
	case record != "":
		if err := writeTo(record, stdout, func(w io.Writer) error { return twin.WriteJSON(w, rep) }); err != nil {
			fmt.Fprintln(stderr, "twin:", err)
			return 1
		}
		fmt.Fprintf(stdout, "twin: recorded calibration baseline to %s (%d net points, %d proto points)\n",
			record, len(rep.Net), len(rep.Proto))
		return 0
	case compare != "":
		data, err := os.ReadFile(compare)
		if err != nil {
			fmt.Fprintln(stderr, "twin:", err)
			return 1
		}
		baseline, err := twin.ParseReport(data)
		if err != nil {
			fmt.Fprintln(stderr, "twin:", err)
			return 1
		}
		if bad := twin.Compare(baseline, rep); len(bad) != 0 {
			fmt.Fprintf(stderr, "twin: calibration drifted from %s:\n", compare)
			for _, b := range bad {
				fmt.Fprintln(stderr, " ", b)
			}
			return 1
		}
		fmt.Fprintf(stdout, "twin: calibration matches %s (%d net points, %d proto points) — PASS\n",
			compare, len(rep.Net), len(rep.Proto))
		return 0
	case jsonOut:
		if err := twin.WriteJSON(stdout, rep); err != nil {
			fmt.Fprintln(stderr, "twin:", err)
			return 1
		}
	case csvOut:
		if err := twin.WriteCSV(stdout, rep); err != nil {
			fmt.Fprintln(stderr, "twin:", err)
			return 1
		}
	default:
		if err := twin.WriteText(stdout, rep); err != nil {
			fmt.Fprintln(stderr, "twin:", err)
			return 1
		}
	}
	return 0
}

// runSpeedup handles -speedup.
func runSpeedup(opt twin.Options, floor float64, stdout, stderr io.Writer) int {
	s, err := twin.MeasureSpeedup(opt)
	if err != nil {
		fmt.Fprintln(stderr, "twin:", err)
		return 1
	}
	fmt.Fprintf(stdout, "twin speedup at %s:\n", s.Point)
	fmt.Fprintf(stdout, "  simulate: %.0f ns/op\n", s.SimNsPerOp)
	fmt.Fprintf(stdout, "  twin:     %.1f ns/op\n", s.TwinNsPerOp)
	fmt.Fprintf(stdout, "  factor:   %.0fx\n", s.Factor)
	if floor > 0 && s.Factor < floor {
		fmt.Fprintf(stderr, "twin: speedup %.0fx below the %.0fx floor\n", s.Factor, floor)
		return 1
	}
	return 0
}

// emitJSON marshals v to stdout as indented JSON.
func emitJSON(stdout, stderr io.Writer, v any) int {
	if err := writeJSONValue(stdout, v); err != nil {
		fmt.Fprintln(stderr, "twin:", err)
		return 1
	}
	return 0
}

// writeJSONValue emits v as indented JSON.
func writeJSONValue(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// writeTo renders into dest, treating "-" as stdout; a failed render never
// leaves a truncated file behind.
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
