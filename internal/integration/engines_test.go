package integration

import (
	"fmt"
	"strings"
	"testing"

	"msglayer/internal/critpath"
	"msglayer/internal/flitnet"
	"msglayer/internal/obs"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/topology"
	"msglayer/internal/workload"
)

// observedPoint is everything an observed open-loop point exports: the
// artifacts the command-line tools build from a workload.Drive run.
type observedPoint struct {
	stats    flitnet.Stats
	prom     string // Prometheus text, minus the engine-only idle gauge
	trace    string // Chrome trace-event JSON
	digest   uint64 // timeline content digest
	critpath string // critical-path text report
}

// driveObserved runs one point through workload.Drive with a FlitScope hub
// and a timeline sampler attached, on the dense reference engine or the
// event-driven one, and renders every artifact.
func driveObserved(t *testing.T, topo topology.Topology, mode flitnet.Mode, vcs int, load float64, dense bool) observedPoint {
	t.Helper()
	net := flitnet.MustNew(flitnet.Config{
		Topology: topo, Mode: mode,
		BufferFlits: 3, InjectQueue: 8, VirtualChannels: vcs,
		DenseReference: dense,
	})
	hub := obs.NewHub()
	net.SetFlitObserver(hub.FlitScope())
	sampler := timeline.New(hub.Metrics, timeline.Config{Interval: 64})
	net.SetCycleListener(sampler.Advance)
	gen, err := workload.NewGenerator(workload.Uniform{}, net.Nodes(), load, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !workload.Drive(net, gen, 300) {
		t.Fatal("network never drained")
	}
	tl, err := sampler.Finish(net.Cycle())
	if err != nil {
		t.Fatal(err)
	}
	if err := critpath.Reconcile(hub); err != nil {
		t.Fatal(err)
	}
	var prom, trace, cp strings.Builder
	if err := hub.Metrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := hub.Trace.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := critpath.WriteText(&cp, critpath.Analyze(hub.Trace.Events())); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(prom.String(), "\n") {
		if !strings.Contains(line, "flitnet_idle_skipped") {
			kept = append(kept, line)
		}
	}
	return observedPoint{
		stats:    net.FlitStats(),
		prom:     strings.Join(kept, "\n"),
		trace:    trace.String(),
		digest:   tl.DigestValue,
		critpath: cp.String(),
	}
}

// TestDriveDenseMatchesEventDriven is the engine-equivalence contract at
// the level the tools measure: for every routing mode on the fat tree and
// on a two-VC mesh, an observed workload.Drive point exports identical
// stats, metrics, Chrome trace, timeline and critical-path report on the
// dense reference engine and on the event-driven one. Only the idle
// fast-forward gauge, which the dense engine never advances, may differ.
func TestDriveDenseMatchesEventDriven(t *testing.T) {
	shapes := []struct {
		name string
		topo topology.Topology
		vcs  int
	}{
		{"fattree", topology.MustFatTree(4, 2), 1},
		{"mesh-vc2", topology.MustMesh(4, 4), 2},
	}
	for _, sh := range shapes {
		for _, mode := range []flitnet.Mode{flitnet.Deterministic, flitnet.Adaptive, flitnet.CR} {
			for _, load := range []float64{0.05, 0.2} {
				t.Run(fmt.Sprintf("%s/%s/load%.2f", sh.name, mode, load), func(t *testing.T) {
					event := driveObserved(t, sh.topo, mode, sh.vcs, load, false)
					dense := driveObserved(t, sh.topo, mode, sh.vcs, load, true)
					if event.stats != dense.stats {
						t.Errorf("stats differ:\n event %#v\n dense %#v", event.stats, dense.stats)
					}
					if event.prom != dense.prom {
						t.Error("Prometheus text differs")
					}
					if event.trace != dense.trace {
						t.Error("Chrome trace differs")
					}
					if event.digest != dense.digest {
						t.Errorf("timeline digest %x (event) vs %x (dense)", event.digest, dense.digest)
					}
					if event.critpath != dense.critpath {
						t.Error("critical-path report differs")
					}
				})
			}
		}
	}
}
