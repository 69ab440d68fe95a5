package twin

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"msglayer/internal/experiments"
	"msglayer/internal/flitnet"
	"msglayer/internal/network"
	"msglayer/internal/parsweep"
	"msglayer/internal/report"
	"msglayer/internal/topology"
	"msglayer/internal/workload"
)

// Canonical calibration configuration: every committed number in tables.go
// and every calibration report is measured under these constants.
const (
	// CalCycles is the measurement length per simulated point.
	CalCycles = 800
	// CalSeed seeds the traffic generators.
	CalSeed = 1
	// ReportSchema versions the calibration-report JSON.
	ReportSchema = 1
)

// calHoldoutLoads are the validation loads between the knots. The twin
// reproduces the knots by construction, so these are where genuine model
// error shows; the committed grid includes both so the reported MAPE is
// honest and nonzero.
var calHoldoutLoads = []float64{0.035, 0.075, 0.125, 0.175, 0.25}

// CalLoads returns the full committed calibration grid (knots and
// holdouts), in ascending order.
func CalLoads() []float64 {
	out := append([]float64(nil), calKnotLoads[:]...)
	out = append(out, calHoldoutLoads...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// protoCalWords are the transfer sizes of the protocol calibration grid.
var protoCalWords = []int{16, 64, 256, 1024}

// Options parameterize a calibration run. The results are byte-identical
// at any option values: the worker count changes wall clock only, and the
// dense engine is byte-equivalent to the event-driven one.
type Options struct {
	// Parallel is the worker count for the simulation sweep (0 = GOMAXPROCS).
	Parallel int
	// Dense selects the dense reference engine.
	Dense bool
}

// NetRow is one network grid point of the calibration report.
type NetRow struct {
	Regime       string `json:"regime"`
	LoadPermille int    `json:"load_permille"`
	// Knot marks loads the tables were fitted at (the twin reproduces
	// these by construction; holdout rows measure real model error).
	Knot      bool    `json:"knot"`
	MeasLat   float64 `json:"meas_lat"`
	PredLat   float64 `json:"pred_lat"`
	LatErrPm  int64   `json:"lat_err_pm"`
	MeasThru  float64 `json:"meas_thru"`
	PredThru  float64 `json:"pred_thru"`
	ThruErrPm int64   `json:"thru_err_pm"`
	MeasMv    float64 `json:"meas_moves"`
	PredMv    float64 `json:"pred_moves"`
	MvErrPm   int64   `json:"moves_err_pm"`
}

// ProtoRow is one protocol grid point of the calibration report.
type ProtoRow struct {
	Scenario  string `json:"scenario"`
	Words     int    `json:"words"`
	Measured  uint64 `json:"measured_instr"`
	Predicted uint64 `json:"predicted_instr"`
	ErrPm     int64  `json:"err_pm"`
}

// MetricAccuracy is one (regime, metric) accuracy aggregate. MAPE and
// Pearson r are stored as permyriad integers (1/100 of a percent;
// r=0.9987 -> 9987) so the committed baseline compares exactly.
type MetricAccuracy struct {
	Metric    string `json:"metric"`
	MAPEPm    int64  `json:"mape_pm"`
	PearsonPm int64  `json:"pearson_pm"`
}

// RegimeAccuracy aggregates one regime's metrics over the load grid.
type RegimeAccuracy struct {
	Regime  string           `json:"regime"`
	Metrics []MetricAccuracy `json:"metrics"`
}

// Report is one full calibration sweep: every grid point with its
// twin-vs-simulator error, plus the per-regime accuracy aggregates the
// gate compares.
type Report struct {
	Schema        int              `json:"schema"`
	Cycles        int              `json:"cycles"`
	Seed          int64            `json:"seed"`
	Net           []NetRow         `json:"net"`
	Proto         []ProtoRow       `json:"proto"`
	NetAccuracy   []RegimeAccuracy `json:"net_accuracy"`
	ProtoAccuracy []MetricAccuracy `json:"proto_accuracy"`
}

// Thresholds are the accuracy floors the gate enforces.
type Thresholds struct {
	// MaxMAPEPm is the largest acceptable MAPE in permyriad (500 = 5%).
	MaxMAPEPm int64
	// MinPearsonPm is the smallest acceptable Pearson r in permyriad
	// (9900 = 0.99).
	MinPearsonPm int64
}

// DefaultThresholds are the committed accuracy floors: MAPE <= 5% and
// Pearson r >= 0.99 for every regime and metric.
func DefaultThresholds() Thresholds { return Thresholds{MaxMAPEPm: 500, MinPearsonPm: 9900} }

// netSample is one simulated grid point's measured rates.
type netSample struct {
	lat, thru, moves, drain float64
}

// simulateNet runs one calibration point on the real simulator, exactly
// the way cmd/netload measures it (1-word payloads, BufferFlits 3,
// InjectQueue 8, refused injections part of the measurement).
func simulateNet(r Regime, load float64, opt Options) (netSample, error) {
	var topo topology.Topology
	var err error
	switch r.Topology {
	case "fattree":
		topo, err = topology.NewFatTree(r.A, r.B)
	case "mesh":
		topo, err = topology.NewMesh(r.A, r.B)
	default:
		err = fmt.Errorf("twin: unknown topology %q", r.Topology)
	}
	if err != nil {
		return netSample{}, err
	}
	net, err := flitnet.New(flitnet.Config{
		Topology:        topo,
		Mode:            r.Mode,
		BufferFlits:     3,
		InjectQueue:     8,
		VirtualChannels: r.VCs,
		DenseReference:  opt.Dense,
	})
	if err != nil {
		return netSample{}, err
	}
	pattern, err := workload.ByName("uniform")
	if err != nil {
		return netSample{}, err
	}
	nodes := net.Nodes()
	gen, err := workload.NewGenerator(pattern, nodes, load, CalSeed)
	if err != nil {
		return netSample{}, err
	}
	for c := 0; c < CalCycles; c++ {
		for _, a := range gen.Cycle() {
			_ = net.Inject(network.Packet{Src: a.Src, Dst: a.Dst, Data: []network.Word{network.Word(c)}})
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
	st := net.FlitStats()
	return netSample{
		lat:   st.MeanLatency(),
		thru:  float64(st.Delivered) / float64(nodes) / float64(CalCycles),
		moves: float64(st.FlitMoves) / float64(nodes) / float64(CalCycles),
		drain: float64(st.Cycles) - float64(CalCycles),
	}, nil
}

// protoPoints enumerates the protocol calibration grid in report order.
func protoPoints() []ProtoPoint {
	pts := []ProtoPoint{{Scenario: "single", Words: 1}}
	for _, sc := range []string{"cm5-finite", "cm5-stream", "cr-finite", "cr-stream"} {
		for _, w := range protoCalWords {
			pts = append(pts, ProtoPoint{Scenario: sc, Words: w})
		}
	}
	return pts
}

// cellsTotal sums a role × feature breakdown to the end-to-end count.
func cellsTotal(cells report.Cells) uint64 { return cells.Total().Total() }

// Calibrate sweeps twin-vs-simulator across the committed grid and returns
// the deterministic calibration report. The simulation side fans across a
// parsweep pool; results are reassembled in input order, so the report is
// byte-identical at any worker count and engine.
func Calibrate(opt Options) (*Report, error) {
	workers := parsweep.Workers(opt.Parallel)
	regimes := CalibratedRegimes()
	loads := CalLoads()
	knot := make(map[int]bool, CalKnots)
	for _, l := range calKnotLoads {
		knot[permille(l)] = true
	}

	rep := &Report{Schema: ReportSchema, Cycles: CalCycles, Seed: CalSeed}

	// Network grid: |regimes| x |loads| independent deterministic runs.
	jobs := len(regimes) * len(loads)
	samples := make([]netSample, jobs)
	err := parsweep.Run(workers, jobs, func(i int) error {
		r, load := regimes[i/len(loads)], loads[i%len(loads)]
		s, err := simulateNet(r, load, opt)
		if err != nil {
			return fmt.Errorf("%s load %g: %w", r, load, err)
		}
		samples[i] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ri, r := range regimes {
		var measLat, predLat, measThru, predThru, measMv, predMv []float64
		for li, load := range loads {
			s := samples[ri*len(loads)+li]
			pred, err := NetPoint{Regime: r, Load: load, Cycles: CalCycles}.PredictNet()
			if err != nil {
				return nil, err
			}
			predThruRate := pred.Throughput / 1000
			rep.Net = append(rep.Net, NetRow{
				Regime:       r.String(),
				LoadPermille: permille(load),
				Knot:         knot[permille(load)],
				MeasLat:      s.lat,
				PredLat:      pred.MeanLatency,
				LatErrPm:     errPm(s.lat, pred.MeanLatency),
				MeasThru:     s.thru,
				PredThru:     predThruRate,
				ThruErrPm:    errPm(s.thru, predThruRate),
				MeasMv:       s.moves,
				PredMv:       float64(pred.FlitMoves) / float64(r.mustNodes()) / float64(CalCycles),
				MvErrPm:      errPm(s.moves, float64(pred.FlitMoves)/float64(r.mustNodes())/float64(CalCycles)),
			})
			measLat = append(measLat, s.lat)
			predLat = append(predLat, pred.MeanLatency)
			measThru = append(measThru, s.thru)
			predThru = append(predThru, predThruRate)
			measMv = append(measMv, s.moves)
			predMv = append(predMv, float64(pred.FlitMoves)/float64(r.mustNodes())/float64(CalCycles))
		}
		rep.NetAccuracy = append(rep.NetAccuracy, RegimeAccuracy{
			Regime: r.String(),
			Metrics: []MetricAccuracy{
				{Metric: "lat", MAPEPm: mapePm(measLat, predLat), PearsonPm: pearsonPm(measLat, predLat)},
				{Metric: "thru", MAPEPm: mapePm(measThru, predThru), PearsonPm: pearsonPm(measThru, predThru)},
				{Metric: "moves", MAPEPm: mapePm(measMv, predMv), PearsonPm: pearsonPm(measMv, predMv)},
			},
		})
	}

	// Protocol grid: the analytic model against the real protocol runs.
	pts := protoPoints()
	measured := make([]uint64, len(pts))
	err = parsweep.Run(workers, len(pts), func(i int) error {
		cells, err := experiments.RunCanonical(pts[i].Scenario, pts[i].Words)
		if err != nil {
			return fmt.Errorf("%s words %d: %w", pts[i].Scenario, pts[i].Words, err)
		}
		measured[i] = cellsTotal(cells)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var measInstr, predInstr []float64
	for i, pt := range pts {
		pred, err := pt.PredictProto()
		if err != nil {
			return nil, err
		}
		rep.Proto = append(rep.Proto, ProtoRow{
			Scenario:  pt.Scenario,
			Words:     pt.Words,
			Measured:  measured[i],
			Predicted: pred.Total,
			ErrPm:     errPm(float64(measured[i]), float64(pred.Total)),
		})
		measInstr = append(measInstr, float64(measured[i]))
		predInstr = append(predInstr, float64(pred.Total))
	}
	rep.ProtoAccuracy = []MetricAccuracy{
		{Metric: "instr", MAPEPm: mapePm(measInstr, predInstr), PearsonPm: pearsonPm(measInstr, predInstr)},
	}
	return rep, nil
}

// mustNodes is Nodes for regimes already validated by the table.
func (r Regime) mustNodes() int {
	n, err := r.Nodes()
	if err != nil {
		panic(err)
	}
	return n
}

// Check verifies the report against the accuracy thresholds, returning an
// error naming every violation.
func (rep *Report) Check(t Thresholds) error {
	var bad []string
	for _, ra := range rep.NetAccuracy {
		for _, m := range ra.Metrics {
			if m.MAPEPm > t.MaxMAPEPm {
				bad = append(bad, fmt.Sprintf("%s %s MAPE %s > %s", ra.Regime, m.Metric, pmPercent(m.MAPEPm), pmPercent(t.MaxMAPEPm)))
			}
			if m.PearsonPm < t.MinPearsonPm {
				bad = append(bad, fmt.Sprintf("%s %s Pearson r %s < %s", ra.Regime, m.Metric, pmRatio(m.PearsonPm), pmRatio(t.MinPearsonPm)))
			}
		}
	}
	for _, m := range rep.ProtoAccuracy {
		if m.MAPEPm > t.MaxMAPEPm {
			bad = append(bad, fmt.Sprintf("protocol %s MAPE %s > %s", m.Metric, pmPercent(m.MAPEPm), pmPercent(t.MaxMAPEPm)))
		}
		if m.PearsonPm < t.MinPearsonPm {
			bad = append(bad, fmt.Sprintf("protocol %s Pearson r %s < %s", m.Metric, pmRatio(m.PearsonPm), pmRatio(t.MinPearsonPm)))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	msg := "twin: calibration out of tolerance:"
	for _, b := range bad {
		msg += "\n  " + b
	}
	return fmt.Errorf("%s", msg)
}

// Compare gates a fresh report against a committed baseline: everything is
// deterministic, so any difference at all is drift — the same contract as
// perfreg's exact-equality sim gate. It returns the mismatches (empty
// means pass).
func Compare(baseline, fresh *Report) []string {
	var bad []string
	if baseline.Schema != fresh.Schema || baseline.Cycles != fresh.Cycles || baseline.Seed != fresh.Seed {
		bad = append(bad, fmt.Sprintf("configs differ: schema %d/%d cycles %d/%d seed %d/%d",
			baseline.Schema, fresh.Schema, baseline.Cycles, fresh.Cycles, baseline.Seed, fresh.Seed))
		return bad
	}
	if len(baseline.Net) != len(fresh.Net) {
		bad = append(bad, fmt.Sprintf("net grid size %d vs %d", len(baseline.Net), len(fresh.Net)))
	} else {
		for i := range baseline.Net {
			if baseline.Net[i] != fresh.Net[i] {
				bad = append(bad, fmt.Sprintf("net %s load %d/1000 drifted (lat %v->%v pred %v->%v)",
					baseline.Net[i].Regime, baseline.Net[i].LoadPermille,
					baseline.Net[i].MeasLat, fresh.Net[i].MeasLat,
					baseline.Net[i].PredLat, fresh.Net[i].PredLat))
			}
		}
	}
	if len(baseline.Proto) != len(fresh.Proto) {
		bad = append(bad, fmt.Sprintf("proto grid size %d vs %d", len(baseline.Proto), len(fresh.Proto)))
	} else {
		for i := range baseline.Proto {
			if baseline.Proto[i] != fresh.Proto[i] {
				bad = append(bad, fmt.Sprintf("proto %s words %d drifted (measured %d->%d predicted %d->%d)",
					baseline.Proto[i].Scenario, baseline.Proto[i].Words,
					baseline.Proto[i].Measured, fresh.Proto[i].Measured,
					baseline.Proto[i].Predicted, fresh.Proto[i].Predicted))
			}
		}
	}
	bad = append(bad, compareAccuracy("net", flattenAccuracy(baseline.NetAccuracy), flattenAccuracy(fresh.NetAccuracy))...)
	bad = append(bad, compareAccuracy("proto", accuracyPairs("protocol", baseline.ProtoAccuracy), accuracyPairs("protocol", fresh.ProtoAccuracy))...)
	return bad
}

// accuracyPair is one flattened (scope, metric) accuracy value.
type accuracyPair struct {
	scope string
	m     MetricAccuracy
}

func flattenAccuracy(in []RegimeAccuracy) []accuracyPair {
	var out []accuracyPair
	for _, ra := range in {
		out = append(out, accuracyPairs(ra.Regime, ra.Metrics)...)
	}
	return out
}

func accuracyPairs(scope string, ms []MetricAccuracy) []accuracyPair {
	out := make([]accuracyPair, 0, len(ms))
	for _, m := range ms {
		out = append(out, accuracyPair{scope, m})
	}
	return out
}

func compareAccuracy(kind string, baseline, fresh []accuracyPair) []string {
	var bad []string
	if len(baseline) != len(fresh) {
		return append(bad, fmt.Sprintf("%s accuracy table size %d vs %d", kind, len(baseline), len(fresh)))
	}
	for i := range baseline {
		if baseline[i] != fresh[i] {
			bad = append(bad, fmt.Sprintf("%s accuracy %s/%s drifted: MAPE %s->%s, r %s->%s",
				kind, fresh[i].scope, fresh[i].m.Metric,
				pmPercent(baseline[i].m.MAPEPm), pmPercent(fresh[i].m.MAPEPm),
				pmRatio(baseline[i].m.PearsonPm), pmRatio(fresh[i].m.PearsonPm)))
		}
	}
	return bad
}

// Fit regenerates the committed table source from fresh simulations of the
// knot loads: the output is the body of tables.go. Paste it over the
// existing table when the engine's behaviour legitimately changes.
func Fit(opt Options) (string, error) {
	workers := parsweep.Workers(opt.Parallel)
	regimes := CalibratedRegimes()
	jobs := len(regimes) * CalKnots
	samples := make([]netSample, jobs)
	err := parsweep.Run(workers, jobs, func(i int) error {
		r, load := regimes[i/CalKnots], calKnotLoads[i%CalKnots]
		s, err := simulateNet(r, load, opt)
		if err != nil {
			return fmt.Errorf("%s load %g: %w", r, load, err)
		}
		samples[i] = s
		return nil
	})
	if err != nil {
		return "", err
	}
	out := "var calibratedRegimes = []calibratedRegime{\n"
	for ri, r := range regimes {
		mode := "flitnet.Deterministic"
		switch r.Mode {
		case flitnet.Adaptive:
			mode = "flitnet.Adaptive"
		case flitnet.CR:
			mode = "flitnet.CR"
		}
		out += fmt.Sprintf("\t{\n\t\tRegime: Regime{Topology: %q, A: %d, B: %d, Mode: %s, VCs: %d},\n",
			r.Topology, r.A, r.B, mode, r.VCs)
		row := func(name string, pick func(netSample) float64) string {
			line := fmt.Sprintf("\t\t%s [CalKnots]float64{", name)
			for ki := 0; ki < CalKnots; ki++ {
				if ki > 0 {
					line += ", "
				}
				line += formatKnot(pick(samples[ri*CalKnots+ki]))
			}
			return line + "},\n"
		}
		out += row("Lat:   ", func(s netSample) float64 { return s.lat })
		out += row("Thru:  ", func(s netSample) float64 { return s.thru })
		out += row("Moves: ", func(s netSample) float64 { return s.moves })
		out += row("Drain: ", func(s netSample) float64 { return s.drain })
		out += "\t},\n"
	}
	return out + "}\n", nil
}

// WriteText renders the calibration report as the canonical text table.
func WriteText(w io.Writer, rep *Report) error {
	fmt.Fprintf(w, "analytic twin calibration vs simulator (schema %d)\n", rep.Schema)
	fmt.Fprintf(w, "# cycles: %d, seed: %d, traffic: uniform, payload: 1 word\n", rep.Cycles, rep.Seed)
	fmt.Fprintf(w, "# knots (calibration loads, permille):")
	for _, l := range calKnotLoads {
		fmt.Fprintf(w, " %d", permille(l))
	}
	fmt.Fprintf(w, "\n# holdouts (validation loads, permille):")
	for _, l := range calHoldoutLoads {
		fmt.Fprintf(w, " %d", permille(l))
	}
	fmt.Fprintln(w)
	last := ""
	for _, row := range rep.Net {
		if row.Regime != last {
			last = row.Regime
			fmt.Fprintf(w, "\n== %s\n", row.Regime)
			fmt.Fprintf(w, "%-6s %-4s %10s %10s %8s %10s %10s %8s %10s %10s %8s\n",
				"load", "knot", "meas-lat", "twin-lat", "err%", "meas-thru", "twin-thru", "err%", "meas-mv", "twin-mv", "err%")
		}
		mark := ""
		if row.Knot {
			mark = "*"
		}
		fmt.Fprintf(w, "%-6d %-4s %10.4f %10.4f %8s %10.6f %10.6f %8s %10.6f %10.6f %8s\n",
			row.LoadPermille, mark,
			row.MeasLat, row.PredLat, pmPercent(row.LatErrPm),
			row.MeasThru, row.PredThru, pmPercent(row.ThruErrPm),
			row.MeasMv, row.PredMv, pmPercent(row.MvErrPm))
	}
	fmt.Fprintf(w, "\n== per-regime accuracy over the full grid\n")
	fmt.Fprintf(w, "%-32s %-6s %10s %10s\n", "regime", "metric", "MAPE", "pearson-r")
	for _, ra := range rep.NetAccuracy {
		for _, m := range ra.Metrics {
			fmt.Fprintf(w, "%-32s %-6s %10s %10s\n", ra.Regime, m.Metric, pmPercent(m.MAPEPm), pmRatio(m.PearsonPm))
		}
	}
	fmt.Fprintf(w, "\n== protocol instruction totals (exact analytic model)\n")
	fmt.Fprintf(w, "%-12s %6s %10s %10s %8s\n", "scenario", "words", "measured", "twin", "err%")
	for _, row := range rep.Proto {
		fmt.Fprintf(w, "%-12s %6d %10d %10d %8s\n", row.Scenario, row.Words, row.Measured, row.Predicted, pmPercent(row.ErrPm))
	}
	for _, m := range rep.ProtoAccuracy {
		fmt.Fprintf(w, "accuracy: %s MAPE %s, pearson r %s\n", m.Metric, pmPercent(m.MAPEPm), pmRatio(m.PearsonPm))
	}
	t := DefaultThresholds()
	verdict := "PASS"
	if rep.Check(t) != nil {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "\nthresholds: MAPE <= %s, pearson r >= %s per regime and metric — %s\n",
		pmPercent(t.MaxMAPEPm), pmRatio(t.MinPearsonPm), verdict)
	return nil
}

// WriteJSON renders the report as indented JSON.
func WriteJSON(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteCSV renders the grid rows as CSV (net rows, then proto rows).
func WriteCSV(w io.Writer, rep *Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "regime_or_scenario", "load_permille_or_words", "knot",
		"meas_lat", "pred_lat", "lat_err_pm", "meas_thru", "pred_thru", "thru_err_pm",
		"meas_moves", "pred_moves", "moves_err_pm", "meas_instr", "pred_instr", "instr_err_pm"}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range rep.Net {
		if err := cw.Write([]string{"net", r.Regime, strconv.Itoa(r.LoadPermille), strconv.FormatBool(r.Knot),
			f(r.MeasLat), f(r.PredLat), strconv.FormatInt(r.LatErrPm, 10),
			f(r.MeasThru), f(r.PredThru), strconv.FormatInt(r.ThruErrPm, 10),
			f(r.MeasMv), f(r.PredMv), strconv.FormatInt(r.MvErrPm, 10), "", "", ""}); err != nil {
			return err
		}
	}
	for _, r := range rep.Proto {
		if err := cw.Write([]string{"proto", r.Scenario, strconv.Itoa(r.Words), "",
			"", "", "", "", "", "", "", "", "",
			strconv.FormatUint(r.Measured, 10), strconv.FormatUint(r.Predicted, 10), strconv.FormatInt(r.ErrPm, 10)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ParseReport decodes a calibration report, rejecting unknown schemas.
func ParseReport(data []byte) (*Report, error) {
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	if rep.Schema != ReportSchema {
		return nil, fmt.Errorf("twin: report schema %d, this build reads %d", rep.Schema, ReportSchema)
	}
	return &rep, nil
}

// formatKnot renders a measured knot value as the exact Go literal the
// committed tables use (shortest round-tripping decimal).
func formatKnot(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// permille converts a load fraction to its integer permille axis value.
func permille(load float64) int { return int(math.Floor(load*1000 + 0.5)) }

// errPm returns the signed relative error of pred vs meas in permyriad,
// rounded half-up on the magnitude.
func errPm(meas, pred float64) int64 {
	if meas == 0 {
		if pred == 0 {
			return 0
		}
		return 10000
	}
	rel := (pred - meas) / meas
	pm := int64(math.Floor(math.Abs(rel)*10000 + 0.5))
	if rel < 0 {
		return -pm
	}
	return pm
}

// mapePm is the mean absolute percentage error in permyriad over a grid.
func mapePm(meas, pred []float64) int64 {
	if len(meas) == 0 {
		return 0
	}
	sum := 0.0
	for i := range meas {
		if meas[i] == 0 {
			continue
		}
		sum += math.Abs((pred[i] - meas[i]) / meas[i])
	}
	return int64(math.Floor(sum/float64(len(meas))*10000 + 0.5))
}

// pearsonPm is the Pearson correlation coefficient in permyriad. Degenerate
// series (zero variance) score 10000 when identical and 0 otherwise.
func pearsonPm(meas, pred []float64) int64 {
	n := float64(len(meas))
	if n == 0 {
		return 0
	}
	var mm, mp float64
	for i := range meas {
		mm += meas[i]
		mp += pred[i]
	}
	mm /= n
	mp /= n
	var cov, vm, vp float64
	for i := range meas {
		dm, dp := meas[i]-mm, pred[i]-mp
		cov += dm * dp
		vm += dm * dm
		vp += dp * dp
	}
	if vm == 0 || vp == 0 {
		for i := range meas {
			if meas[i] != pred[i] {
				return 0
			}
		}
		return 10000
	}
	r := cov / math.Sqrt(vm*vp)
	pm := int64(math.Floor(r*10000 + 0.5))
	if pm > 10000 {
		pm = 10000
	}
	if pm < -10000 {
		pm = -10000
	}
	return pm
}

// pmPercent formats a permyriad value as a percentage ("1.73%").
func pmPercent(pm int64) string {
	sign := ""
	if pm < 0 {
		sign = "-"
		pm = -pm
	}
	return fmt.Sprintf("%s%d.%02d%%", sign, pm/100, pm%100)
}

// pmRatio formats a permyriad value as a ratio ("0.9987").
func pmRatio(pm int64) string {
	sign := ""
	if pm < 0 {
		sign = "-"
		pm = -pm
	}
	return fmt.Sprintf("%s%d.%04d", sign, pm/10000, pm%10000)
}
