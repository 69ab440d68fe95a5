package flitnet

import (
	"bytes"
	"fmt"
	"testing"

	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/topology"
)

// runTimelineWorkload drives one net through the seeded diff workload with
// a full observer attached — flit scope, occupancy gauges, link counters,
// and a timeline sampler on the cycle listener — and returns the rendered
// timeline plus the sampler for reconciliation.
func runTimelineWorkload(t *testing.T, cfg Config, seed uint64) (string, *timeline.Sampler) {
	t.Helper()
	n := MustNew(cfg)
	hub := obs.NewHub()
	n.SetFlitObserver(hub.FlitScope())
	s := timeline.New(hub.Metrics, timeline.Config{Interval: 32})
	n.SetCycleListener(s.Advance)

	nodes := n.Nodes()
	rng := diffRNG(seed)
	injected := 0
	for injected < 120 {
		for b := 0; b < 5 && injected < 120; b++ {
			src := rng.intn(nodes)
			dst := rng.intn(nodes)
			if src == dst {
				dst = (dst + 1) % nodes
			}
			words := rng.intn(n.PacketWords() + 1)
			data := make([]network.Word, words)
			for i := range data {
				data[i] = network.Word(rng.next())
			}
			_ = n.Inject(network.Packet{Src: src, Dst: dst, Data: data})
			injected++
		}
		switch rng.intn(3) {
		case 0:
			n.Tick(1 + rng.intn(7))
		case 1:
			n.Tick(64)
		default:
			n.TickUntilQuiet(4096)
		}
		for node := 0; node < nodes; node++ {
			for {
				if _, ok := n.TryRecv(node); !ok {
					break
				}
			}
		}
	}
	if !n.TickUntilQuiet(1_000_000) {
		t.Fatalf("workload did not drain: pending=%d", n.Pending())
	}
	s.Flush(n.Cycle())
	var b bytes.Buffer
	if err := timeline.WriteJSON(&b, s.Snapshot()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return b.String(), s
}

// TestTimelineDenseEventEquivalence extends the engine equivalence
// contract to the timeline: the dense reference and the event-driven
// engine (whose idle fast-forward back-fills skipped windows analytically)
// must render byte-identical timelines, and both must reconcile against
// their registries.
func TestTimelineDenseEventEquivalence(t *testing.T) {
	grid := []struct {
		name string
		cfg  Config
	}{
		{"det-vc2", Config{Topology: topology.MustMesh(4, 4), Mode: Deterministic, VirtualChannels: 2}},
		{"adaptive-vc3", Config{Topology: topology.MustMesh(4, 4), Mode: Adaptive, VirtualChannels: 3}},
		{"cr-tight", Config{Topology: topology.MustMesh(4, 4), Mode: CR, KillTimeout: 8, RetryBackoff: 64, BufferFlits: 2}},
		{"fattree-cr", Config{Topology: topology.MustFatTree(4, 2), Mode: CR}},
	}
	for _, g := range grid {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				dense := g.cfg
				dense.DenseReference = true
				denseOut, denseS := runTimelineWorkload(t, dense, seed)
				eventOut, eventS := runTimelineWorkload(t, g.cfg, seed)
				if denseOut != eventOut {
					t.Errorf("timelines diverge between engines:\n dense %d bytes\n event %d bytes", len(denseOut), len(eventOut))
				}
				if err := denseS.Reconcile(); err != nil {
					t.Errorf("dense timeline does not reconcile: %v", err)
				}
				if err := eventS.Reconcile(); err != nil {
					t.Errorf("event timeline does not reconcile: %v", err)
				}
			})
		}
	}
}

// TestBufferedGaugeMatchesScan holds the maintained buffered-flit counts
// (which feed the flitnet_buffered_flits gauges) to the ground truth a
// full lane scan computes, at every step of a busy CR workload — kills and
// sweeps included.
func TestBufferedGaugeMatchesScan(t *testing.T) {
	cfg := Config{Topology: topology.MustMesh(4, 4), Mode: CR, KillTimeout: 8, RetryBackoff: 32, BufferFlits: 2, PacketWords: 8}
	n := MustNew(cfg)
	hub := obs.NewHub()
	n.SetFlitObserver(hub.FlitScope())
	rng := diffRNG(11)
	long := make([]network.Word, 8)
	scanBuffered := func() int {
		total := 0
		for id := range n.lane {
			total += n.lane[id].len()
		}
		return total
	}
	for step := 0; step < 6000; step++ {
		src := rng.intn(16)
		dst := rng.intn(16)
		if src != dst {
			_ = n.Inject(network.Packet{Src: src, Dst: dst, Data: long})
		}
		n.tickOnce()
		if want := scanBuffered(); n.buffered != want {
			t.Fatalf("step %d: buffered=%d, scan says %d", step, n.buffered, want)
		}
	}
	if n.FlitStats().Kills == 0 {
		t.Fatal("workload never exercised the kill sweep; gauge accounting untested there")
	}
}

// TestVCGaugeMatchesScan does the per-virtual-channel accounting check on
// an adaptive multi-VC workload.
func TestVCGaugeMatchesScan(t *testing.T) {
	cfg := Config{Topology: topology.MustMesh(4, 4), Mode: Adaptive, VirtualChannels: 3}
	n := MustNew(cfg)
	hub := obs.NewHub()
	n.SetFlitObserver(hub.FlitScope())
	rng := diffRNG(23)
	scanVC := func(vc int) int {
		total := 0
		for id := vc; id < len(n.lane); id += cfg.VirtualChannels {
			total += n.lane[id].len()
		}
		return total
	}
	for step := 0; step < 2000; step++ {
		if rng.intn(3) == 0 {
			src := rng.intn(16)
			dst := rng.intn(16)
			if src != dst {
				_ = n.Inject(network.Packet{Src: src, Dst: dst, Data: []network.Word{network.Word(step)}})
			}
		}
		n.tickOnce()
		for vc := 0; vc < 3; vc++ {
			if want := scanVC(vc); n.bufferedVC[vc] != want {
				t.Fatalf("step %d vc %d: bufferedVC=%d, scan says %d", step, vc, n.bufferedVC[vc], want)
			}
		}
	}
}

// TestLinkCountersSumToFlitMoves checks that the per-link utilization
// counters partition Stats.FlitMoves exactly: every flit move crosses
// exactly one router output link.
func TestLinkCountersSumToFlitMoves(t *testing.T) {
	cfg := Config{Topology: topology.MustFatTree(4, 2), Mode: Adaptive, VirtualChannels: 2}
	n := MustNew(cfg)
	hub := obs.NewHub()
	n.SetFlitObserver(hub.FlitScope())
	rng := diffRNG(5)
	for i := 0; i < 200; i++ {
		src := rng.intn(n.Nodes())
		dst := rng.intn(n.Nodes())
		if src == dst {
			continue
		}
		_ = n.Inject(network.Packet{Src: src, Dst: dst, Data: []network.Word{network.Word(i)}})
		n.Tick(1 + rng.intn(3))
	}
	if !n.TickUntilQuiet(1_000_000) {
		t.Fatal("did not drain")
	}
	var sum uint64
	for _, k := range hub.Metrics.CounterKeys() {
		if k.Name == "flitnet_link_flits_total" {
			sum += hub.Metrics.CounterValue(k)
		}
	}
	if sum == 0 || sum != n.FlitStats().FlitMoves {
		t.Fatalf("link counters sum to %d, FlitMoves=%d", sum, n.FlitStats().FlitMoves)
	}
}
