package timeline_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"msglayer/internal/experiments"
	"msglayer/internal/flitnet"
	"msglayer/internal/obs"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/topology"
	"msglayer/internal/workload"
)

// canonicalTimeline runs one canonical scenario with a sampler on the
// hub's round clock and returns its reconciled timeline.
func canonicalTimeline(tb testing.TB, name string, interval uint64) *timeline.Timeline {
	tb.Helper()
	hub := obs.NewHub()
	s := timeline.New(hub.Metrics, timeline.Config{Interval: interval})
	hub.SetTickListener(s.Advance)
	experiments.SetObserver(hub)
	defer experiments.SetObserver(nil)
	if _, err := experiments.RunCanonical(name, 64); err != nil {
		tb.Fatalf("RunCanonical(%s): %v", name, err)
	}
	tl, err := s.Finish(hub.Round())
	if err != nil {
		tb.Fatal(err)
	}
	return tl
}

// fatTreeSampler runs one flit grid point the way netload and perfbench
// do: the 4-ary 2-tree under uniform traffic, fully observed, with the
// sampler on the net's cycle clock. The sampler comes back flushed.
func fatTreeSampler(tb testing.TB, mode flitnet.Mode, load float64, cycles int, cfg timeline.Config) *timeline.Sampler {
	tb.Helper()
	topo, err := topology.NewFatTree(4, 2)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := flitnet.New(flitnet.Config{Topology: topo, Mode: mode, BufferFlits: 3, InjectQueue: 8})
	if err != nil {
		tb.Fatal(err)
	}
	defer net.Close()
	hub := obs.NewHub()
	net.SetFlitObserver(hub.FlitScope())
	s := timeline.New(hub.Metrics, cfg)
	net.SetCycleListener(s.Advance)
	gen, err := workload.NewGenerator(workload.Uniform{}, net.Nodes(), load, 1)
	if err != nil {
		tb.Fatal(err)
	}
	workload.Drive(net, gen, cycles)
	s.Flush(net.FlitStats().Cycles)
	return s
}

// countingWriter counts the Write calls it buffers.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// checkAppendJSON holds AppendJSON to its oracle, json.MarshalIndent, at
// both prefixes the repo writes (a top-level timeline and one nested in
// netload's grid document), and WriteJSON to json.Encoder's output. It
// returns how many writes WriteJSON made.
func checkAppendJSON(t *testing.T, name string, tl *timeline.Timeline) int {
	t.Helper()
	for _, prefix := range []string{"", "      "} {
		want, err := json.MarshalIndent(tl, prefix, "  ")
		if err != nil {
			t.Fatal(err)
		}
		lead := []byte("lead:")
		got := timeline.AppendJSON(lead, tl, prefix)
		if !bytes.HasPrefix(got, lead) {
			t.Fatalf("%s: AppendJSON lost the bytes it appended to", name)
		}
		if got = got[len(lead):]; !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s, prefix %q: AppendJSON differs from json.MarshalIndent at byte %d of %d/%d:\ngot  …%s\nwant …%s",
				name, prefix, i, len(got), len(want), excerpt(got, i), excerpt(want, i))
		}
	}
	var want bytes.Buffer
	var got countingWriter
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tl); err != nil {
		t.Fatal(err)
	}
	if err := timeline.WriteJSON(&got, tl); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: WriteJSON differs from json.Encoder", name)
	}
	return got.writes
}

func excerpt(b []byte, i int) string {
	lo, hi := max(i-40, 0), min(i+40, len(b))
	return fmt.Sprintf("%q", b[lo:hi])
}

// TestAppendJSONMatchesMarshalIndent runs the differential over every kind
// of timeline the repo builds: the canonical scenarios at two window
// widths, fat-tree grid points under every routing mode, a p99.9 timeline,
// one that dropped windows at the cap, and nil and empty window lists.
func TestAppendJSONMatchesMarshalIndent(t *testing.T) {
	for _, interval := range []uint64{8, 16} {
		for _, name := range experiments.CanonicalScenarios() {
			checkAppendJSON(t, fmt.Sprintf("%s/interval=%d", name, interval), canonicalTimeline(t, name, interval))
		}
	}
	for _, mode := range []flitnet.Mode{flitnet.Deterministic, flitnet.Adaptive, flitnet.CR} {
		for _, load := range []float64{0.05, 0.2} {
			s := fatTreeSampler(t, mode, load, 400, timeline.Config{Interval: 50})
			if err := s.Reconcile(); err != nil {
				t.Fatal(err)
			}
			checkAppendJSON(t, fmt.Sprintf("fattree/%s/load=%.2f", mode, load), s.Snapshot())
		}
	}

	// A flit-observed-sized point: its JSON is large enough that WriteJSON
	// hands it to the writer in many chunks.
	big := fatTreeSampler(t, flitnet.Adaptive, 0.2, 4000, timeline.Config{Interval: 100}).Snapshot()
	if writes := checkAppendJSON(t, "fattree/4000 cycles", big); writes < 2 {
		t.Fatalf("WriteJSON wrote a flit-observed-sized timeline in %d write(s), want it chunked", writes)
	}

	q999 := fatTreeSampler(t, flitnet.Adaptive, 0.2, 400, timeline.Config{Interval: 50, Quantile999: true}).Snapshot()
	if len(q999.Quantiles) == 0 {
		t.Fatal("Quantile999 timeline carries no quantile list")
	}
	checkAppendJSON(t, "quantile999", q999)

	capped := fatTreeSampler(t, flitnet.CR, 0.2, 400, timeline.Config{Interval: 50, MaxWindows: 3}).Snapshot()
	if capped.Dropped == 0 {
		t.Fatal("capped timeline dropped no windows")
	}
	checkAppendJSON(t, "dropped", capped)

	checkAppendJSON(t, "nil windows", &timeline.Timeline{Schema: timeline.SchemaVersion, Interval: 100, Digest: "0000000000000000"})
	checkAppendJSON(t, "empty windows", &timeline.Timeline{Schema: timeline.SchemaVersion, Interval: 100, Windows: []timeline.Window{}})
	checkAppendJSON(t, "idle window", &timeline.Timeline{Windows: []timeline.Window{{Index: 0, End: 1}}})
	if got := string(timeline.AppendJSON(nil, nil, "")); got != "null" {
		t.Fatalf("AppendJSON(nil timeline) = %s, want null", got)
	}
}

// FuzzAppendJSON holds AppendJSON to json.MarshalIndent on timelines built
// from arbitrary strings and integers: every string field takes the
// fuzzed strings (quotes, backslashes, <>&, U+2028, control bytes and
// invalid UTF-8 among the seeds) and the shape byte switches each
// optional field and slice on or off.
func FuzzAppendJSON(f *testing.F) {
	f.Add(`protocol_events_total{node="0",proto="finite",event="finite.start"}`, "source", "p999", uint64(5), int64(-3), uint16(0xffff))
	f.Add("<a&b>", "\u2028\u2029", "\x00\x1f\x7f", uint64(0), int64(0), uint16(0))
	f.Add("a<b", "c>d", "e&f", uint64(7), int64(7), uint16(0x0e9b))
	f.Add("\xff\xfe\xc3", `"\`, "\t\n\r", ^uint64(0), int64(-1)<<63, uint16(0x5a5a))
	f.Add("", "", "", uint64(1), int64(1), uint16(1))
	f.Fuzz(func(t *testing.T, key, label, digest string, n uint64, v int64, shape uint16) {
		on := func(bit int) bool { return shape&(1<<bit) != 0 }
		pick := func(bit int, x uint64) uint64 {
			if on(bit) {
				return x
			}
			return 0
		}
		win := timeline.Window{Index: int(v), Start: n, End: n + 1, Events: pick(0, n)}
		if on(1) {
			win.Counters = []timeline.CounterDelta{{Key: key, Delta: n, RatePerKCycle: pick(2, n)}, {Key: label}}
		}
		if on(3) {
			win.Levels = []timeline.LevelSample{{Key: key, Value: v}}
		}
		if on(4) {
			win.Hists = []timeline.HistDelta{
				{Key: key, Count: n, Sum: n, P50: n, P90: n, P99: n, P999: pick(5, n)},
				{Key: label, P999: pick(6, n)},
			}
		}
		if on(7) {
			win.Breakdown = []timeline.BreakdownCell{{Role: label, Axis: key, Category: digest, Events: n}}
		}
		tl := &timeline.Timeline{Schema: int(v), Interval: n, Dropped: pick(8, n), Digest: digest}
		switch {
		case on(9):
			tl.Windows = []timeline.Window{win, {Index: 1}, win}
		case on(10):
			tl.Windows = []timeline.Window{}
		}
		if on(11) {
			tl.Quantiles = []string{label, key}
		}
		for _, prefix := range []string{"", "      ", label} {
			want, err := json.MarshalIndent(tl, prefix, "  ")
			if err != nil {
				t.Fatal(err)
			}
			if got := timeline.AppendJSON(nil, tl, prefix); !bytes.Equal(got, want) {
				t.Fatalf("prefix %q: AppendJSON differs from json.MarshalIndent:\ngot  %q\nwant %q", prefix, got, want)
			}
		}
	})
}

// The benchmarks price the export layer on one flit-observed-sized
// timeline: a fat-tree point at 4000 cycles with 100-cycle windows.

var snapshotSink *timeline.Timeline

func BenchmarkTimelineSnapshot(b *testing.B) {
	s := fatTreeSampler(b, flitnet.Adaptive, 0.2, 4000, timeline.Config{Interval: 100})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = s.Snapshot()
	}
}

func BenchmarkTimelineWriteJSON(b *testing.B) {
	tl := fatTreeSampler(b, flitnet.Adaptive, 0.2, 4000, timeline.Config{Interval: 100}).Snapshot()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := timeline.WriteJSON(&buf, tl); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
