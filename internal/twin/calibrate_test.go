package twin

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// calOnce shares one serial calibration run across the tests that only
// inspect the report; determinism tests run their own sweeps.
var (
	calOnce sync.Once
	calRep  *Report
	calErr  error
)

func calibrated(t *testing.T) *Report {
	t.Helper()
	calOnce.Do(func() { calRep, calErr = Calibrate(Options{Parallel: 1}) })
	if calErr != nil {
		t.Fatalf("calibrate: %v", calErr)
	}
	return calRep
}

// TestCalibrateMeetsThresholds: the committed grid must clear the gated
// accuracy floors — MAPE <= 5% and Pearson r >= 0.99 everywhere.
func TestCalibrateMeetsThresholds(t *testing.T) {
	rep := calibrated(t)
	if err := rep.Check(DefaultThresholds()); err != nil {
		t.Fatal(err)
	}
}

// TestCalibrateKnotRowsExact: at knot loads the twin is anchored to the
// committed tables, so fresh measurement must agree to 0.00% — any error
// there is engine drift, not model error.
func TestCalibrateKnotRowsExact(t *testing.T) {
	rep := calibrated(t)
	knots, holdouts := 0, 0
	for _, row := range rep.Net {
		if !row.Knot {
			holdouts++
			continue
		}
		knots++
		if row.LatErrPm != 0 || row.ThruErrPm != 0 || row.MvErrPm != 0 {
			t.Errorf("%s load %d: knot row has error lat=%d thru=%d mv=%d permyriad",
				row.Regime, row.LoadPermille, row.LatErrPm, row.ThruErrPm, row.MvErrPm)
		}
	}
	if want := len(CalibratedRegimes()) * CalKnots; knots != want {
		t.Errorf("%d knot rows, want %d", knots, want)
	}
	if want := len(CalibratedRegimes()) * len(calHoldoutLoads); holdouts != want {
		t.Errorf("%d holdout rows, want %d", holdouts, want)
	}
}

// TestCalibrateProtoExact: the protocol side of the report carries zero
// error on every row.
func TestCalibrateProtoExact(t *testing.T) {
	rep := calibrated(t)
	for _, row := range rep.Proto {
		if row.ErrPm != 0 {
			t.Errorf("%s words %d: err %d permyriad, want 0", row.Scenario, row.Words, row.ErrPm)
		}
	}
	for _, m := range rep.ProtoAccuracy {
		if m.MAPEPm != 0 || m.PearsonPm != 10000 {
			t.Errorf("proto %s: MAPE %d, r %d — want exact", m.Metric, m.MAPEPm, m.PearsonPm)
		}
	}
}

// TestCalibrateDeterministic: the report must be byte-identical across
// worker counts and engines — the property CI diffs.
func TestCalibrateDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("three full calibration sweeps")
	}
	base := render(t, calibrated(t))
	for _, opt := range []Options{
		{Parallel: 4},
		{Parallel: 2, Dense: true},
	} {
		rep, err := Calibrate(opt)
		if err != nil {
			t.Fatalf("calibrate %+v: %v", opt, err)
		}
		if got := render(t, rep); got != base {
			t.Errorf("report with %+v differs from serial baseline", opt)
		}
	}
}

func render(t *testing.T, rep *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestCompareSelfAndDrift: a report matches itself; any mutation is named.
func TestCompareSelfAndDrift(t *testing.T) {
	rep := calibrated(t)
	if bad := Compare(rep, rep); len(bad) != 0 {
		t.Fatalf("self-compare: %v", bad)
	}
	mutated := *rep
	mutated.Net = append([]NetRow(nil), rep.Net...)
	mutated.Net[3].MeasLat += 0.5
	if bad := Compare(rep, &mutated); len(bad) == 0 {
		t.Error("net drift not detected")
	}
	mutated = *rep
	mutated.NetAccuracy = append([]RegimeAccuracy(nil), rep.NetAccuracy...)
	ms := append([]MetricAccuracy(nil), rep.NetAccuracy[0].Metrics...)
	ms[0].MAPEPm += 100
	mutated.NetAccuracy[0].Metrics = ms
	if bad := Compare(rep, &mutated); len(bad) == 0 {
		t.Error("accuracy drift not detected")
	}
	mutated = *rep
	mutated.Cycles++
	if bad := Compare(rep, &mutated); len(bad) == 0 {
		t.Error("config drift not detected")
	}
}

// TestReportRoundTrip: JSON encode/decode preserves the report; wrong
// schemas are rejected.
func TestReportRoundTrip(t *testing.T) {
	rep := calibrated(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if bad := Compare(rep, back); len(bad) != 0 {
		t.Fatalf("round trip drifted: %v", bad)
	}
	if _, err := ParseReport([]byte(`{"schema": 99}`)); err == nil {
		t.Error("schema 99 accepted")
	}
	if _, err := ParseReport([]byte(`nope`)); err == nil {
		t.Error("garbage accepted")
	}
}

// TestWriters: the text and CSV renderings carry the full grid.
func TestWriters(t *testing.T) {
	rep := calibrated(t)
	var txt bytes.Buffer
	if err := WriteText(&txt, rep); err != nil {
		t.Fatal(err)
	}
	s := txt.String()
	for _, want := range []string{
		"fattree(4,2)/deterministic/vc1",
		"mesh(4,4)/cr/vc1",
		"per-regime accuracy",
		"protocol instruction totals",
		"PASS",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("text report missing %q", want)
		}
	}
	var csvBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(csvBuf.String(), "\n")
	if want := 1 + len(rep.Net) + len(rep.Proto); lines != want {
		t.Errorf("CSV has %d lines, want %d", lines, want)
	}
}

// TestFitReproducesTables: regenerating the tables from fresh simulation
// must reproduce the committed source — the engine has not drifted.
func TestFitReproducesTables(t *testing.T) {
	src, err := Fit(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(src, "var calibratedRegimes = []calibratedRegime{") {
		t.Fatalf("unexpected header:\n%s", src)
	}
	for _, c := range calibratedRegimes {
		if !strings.Contains(src, c.Regime.Topology) {
			t.Errorf("fit output missing regime %s", c.Regime)
		}
	}
	// The literal float values must match the committed table exactly.
	for _, c := range calibratedRegimes {
		for ki := range calKnotLoads {
			for name, v := range map[string]float64{
				"Lat": c.Lat[ki], "Thru": c.Thru[ki], "Moves": c.Moves[ki], "Drain": c.Drain[ki],
			} {
				lit := formatKnot(v)
				if !strings.Contains(src, lit) {
					t.Errorf("%s %s knot %d: value %s absent from fit output", c.Regime, name, ki, lit)
				}
			}
		}
	}
}

// TestCalLoads: the grid is sorted and contains knots plus holdouts.
func TestCalLoads(t *testing.T) {
	loads := CalLoads()
	if len(loads) != CalKnots+len(calHoldoutLoads) {
		t.Fatalf("%d loads, want %d", len(loads), CalKnots+len(calHoldoutLoads))
	}
	for i := 1; i < len(loads); i++ {
		if loads[i] <= loads[i-1] {
			t.Errorf("loads not strictly ascending at %d: %v", i, loads)
		}
	}
}
