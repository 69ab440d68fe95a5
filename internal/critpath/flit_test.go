package critpath_test

import (
	"bytes"
	"compress/gzip"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"msglayer/internal/critpath"
	"msglayer/internal/flitnet"
	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/topology"
	"msglayer/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the flit golden reports under testdata")

// flitGoldenCycles is the offered-traffic length of each golden point.
const flitGoldenCycles = 4000

// flitGoldens are the points whose reports are pinned: CR at saturation
// (kills, retries and inject backpressure) and adaptive routing at a
// loaded but unsaturated rate.
var flitGoldens = []struct {
	name string
	mode flitnet.Mode
	load float64
}{
	{"fattree-cr-0.30", flitnet.CR, 0.3},
	{"fattree-adaptive-0.20", flitnet.Adaptive, 0.2},
}

// flitPointTrace runs one 4-ary 2-tree point under uniform traffic with a
// FlitScope hub attached, drains it, and returns the recorded trace. Every
// event is network-level (Node -1) and every message identity synthetic,
// so the critical path runs through the whole trace.
func flitPointTrace(tb testing.TB, mode flitnet.Mode, load float64, cycles int) []obs.TraceEvent {
	tb.Helper()
	topo, err := topology.NewFatTree(4, 2)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := flitnet.New(flitnet.Config{
		Topology: topo, Mode: mode, BufferFlits: 3, InjectQueue: 8, VirtualChannels: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	h := obs.NewHub()
	net.SetFlitObserver(h.FlitScope())
	gen, err := workload.NewGenerator(workload.Uniform{}, net.Nodes(), load, 1)
	if err != nil {
		tb.Fatal(err)
	}
	word := []network.Word{0}
	for c := 0; c < cycles; c++ {
		for _, a := range gen.Cycle() {
			err := net.Inject(network.Packet{Src: a.Src, Dst: a.Dst, Data: word})
			if err != nil && !errors.Is(err, network.ErrBackpressure) {
				tb.Fatal(err)
			}
		}
		net.Tick(1)
	}
	if !net.TickUntilQuiet(200000) {
		tb.Fatal("network never drained")
	}
	for node := 0; node < net.Nodes(); node++ {
		for {
			if _, ok := net.TryRecv(node); !ok {
				break
			}
		}
	}
	if d := h.Trace.Dropped(); d != 0 {
		tb.Fatalf("tracer dropped %d events", d)
	}
	if err := critpath.Reconcile(h); err != nil {
		tb.Fatal(err)
	}
	return h.Trace.Events()
}

// TestFlitGoldenReports pins the text report and the JSON document of two
// flit-level points byte for byte, holds Analyze to the reference analyzer,
// and checks that both decompositions telescope on traces where every
// message is a synthetic worm.
func TestFlitGoldenReports(t *testing.T) {
	for _, g := range flitGoldens {
		t.Run(g.name, func(t *testing.T) {
			events := flitPointTrace(t, g.mode, g.load, flitGoldenCycles)
			a := critpath.Analyze(events)
			var text bytes.Buffer
			if err := critpath.WriteText(&text, a); err != nil {
				t.Fatal(err)
			}
			js, err := critpath.JSON(a)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, g.name+".txt", text.Bytes())
			checkGolden(t, g.name+".json.gz", js)

			if len(a.Messages) == 0 {
				t.Fatal("no messages reconstructed")
			}
			checkReference(t, events, a)
			for _, m := range a.Messages {
				var cats uint64
				for _, v := range m.ByCategory {
					cats += v
				}
				if cats != m.Latency {
					t.Fatalf("msg %d: categories sum to %d, latency is %d", m.ID, cats, m.Latency)
				}
			}
			var crit uint64
			for _, v := range a.Critical.ByCategory {
				crit += v
			}
			if crit != a.Critical.Span {
				t.Fatalf("critical-path categories sum to %d, span is %d", crit, a.Critical.Span)
			}
		})
	}
}

// checkGolden compares got with testdata/name, rewriting the file under
// -update. Names ending in .gz are stored gzip-compressed; the comparison
// is on the uncompressed bytes.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	gz := filepath.Ext(name) == ".gz"
	if *update {
		data := got
		if gz {
			var b bytes.Buffer
			zw := gzip.NewWriter(&b)
			zw.Write(got)
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			data = b.Bytes()
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if gz {
		zr, err := gzip.NewReader(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		if want, err = io.ReadAll(zr); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden (%d bytes, want %d); rerun with -update only if the change is intended", name, len(got), len(want))
	}
}

// flitGrid returns the traces of the 4-ary 2-tree grid the benchmark's
// flit-observed workload runs: three routing modes at five loads.
func flitGrid(tb testing.TB) [][]obs.TraceEvent {
	var out [][]obs.TraceEvent
	for _, load := range []float64{0.02, 0.05, 0.1, 0.2, 0.3} {
		for _, mode := range []flitnet.Mode{flitnet.Deterministic, flitnet.Adaptive, flitnet.CR} {
			out = append(out, flitPointTrace(tb, mode, load, flitGoldenCycles))
		}
	}
	return out
}

// TestAnalyzeAllocsBounded holds Analyze to a fixed allocation count and
// to a bound on bytes allocated per trace event on a flit trace: its arenas
// are sized up front, so the count does not grow with the number of
// messages, and its working state is per message and per critical-path
// step, with one byte per event. A short and a full run of the same point
// must both stay under the bounds.
func TestAnalyzeAllocsBounded(t *testing.T) {
	const (
		allocBound = 32
		byteBound  = 110 // per event
	)
	for _, cycles := range []int{500, flitGoldenCycles} {
		events := flitPointTrace(t, flitnet.CR, 0.3, cycles)
		msgs := len(critpath.Analyze(events).Messages)
		allocs := testing.AllocsPerRun(3, func() { critpath.Analyze(events) })
		perEvent := float64(analyzeBytes(events)) / float64(len(events))
		t.Logf("%d cycles: %d events, %d messages, %.0f allocs, %.1f bytes/event", cycles, len(events), msgs, allocs, perEvent)
		if allocs > allocBound {
			t.Errorf("%d cycles (%d messages): Analyze made %.0f allocations, want at most %d", cycles, msgs, allocs, allocBound)
		}
		if perEvent > byteBound {
			t.Errorf("%d cycles (%d events): Analyze allocated %.1f bytes per event, want at most %d", cycles, len(events), perEvent, byteBound)
		}
	}
}

// analyzeBytes returns the heap bytes one Analyze of events allocates, the
// least of three runs on one P.
func analyzeBytes(events []obs.TraceEvent) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		critpath.Analyze(events)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// BenchmarkAnalyzeFlit analyzes the 15 flit-grid traces once per op.
func BenchmarkAnalyzeFlit(b *testing.B) {
	traces := flitGrid(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ev := range traces {
			critpath.Analyze(ev)
		}
	}
}
