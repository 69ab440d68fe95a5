package twin

import (
	"fmt"
	"testing"
)

// Speedup is one measured twin-vs-simulator timing comparison at a single
// grid point: how long the simulator takes to produce the numbers the twin
// predicts in closed form.
type Speedup struct {
	// Point names the operating point both sides evaluated.
	Point string `json:"point"`
	// SimNsPerOp and TwinNsPerOp are the measured per-evaluation times.
	SimNsPerOp  float64 `json:"sim_ns_per_op"`
	TwinNsPerOp float64 `json:"twin_ns_per_op"`
	// Factor is SimNsPerOp / TwinNsPerOp.
	Factor float64 `json:"factor"`
}

// speedupSinks keep the benchmarked work observable so the compiler cannot
// elide either side of the comparison.
var (
	sinkSample     netSample
	sinkPrediction NetPrediction
)

// MeasureSpeedup times the twin against the simulator on the first
// committed regime at load 0.1 (the middle of the calibrated range) using
// testing.Benchmark on both sides. The factor is wall-clock and therefore
// not deterministic; it belongs in logs and EXPERIMENTS.md, never in the
// byte-compared calibration report.
func MeasureSpeedup() (Speedup, error) {
	regimes := CalibratedRegimes()
	if len(regimes) == 0 {
		return Speedup{}, fmt.Errorf("twin: no calibrated regimes")
	}
	r := regimes[0]
	pt := NetPoint{Regime: r, Load: 0.1, Cycles: CalCycles}
	// Fail fast on either side before paying for a benchmark.
	if _, err := pt.PredictNet(); err != nil {
		return Speedup{}, err
	}
	if _, err := simulateNet(r, pt.Load); err != nil {
		return Speedup{}, err
	}
	sim := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := simulateNet(r, pt.Load)
			if err != nil {
				b.Fatal(err)
			}
			sinkSample = s
		}
	})
	tw := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := pt.PredictNet()
			if err != nil {
				b.Fatal(err)
			}
			sinkPrediction = p
		}
	})
	simNs := float64(sim.NsPerOp())
	twinNs := float64(tw.T) / float64(tw.N)
	if twinNs <= 0 {
		twinNs = 1
	}
	return Speedup{
		Point:       fmt.Sprintf("%s load 0.1 cycles %d", r, CalCycles),
		SimNsPerOp:  simNs,
		TwinNsPerOp: twinNs,
		Factor:      simNs / twinNs,
	}, nil
}
