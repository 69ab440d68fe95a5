package flitnet

import (
	"fmt"
	"testing"

	"msglayer/internal/network"
	"msglayer/internal/topology"
)

// The event-driven engine's contract with the dense reference stepper is
// byte-identical results: same Stats, same cycle count, same packets
// delivered to each node in the same order. These tests drive both engines
// through identical seeded workloads — random sources, destinations,
// payload sizes, and idle gaps, across all three routing modes and both
// virtual-channel settings — and compare everything observable.

// diffRNG is a splitmix-style deterministic generator so the workload grid
// is reproducible across runs and platforms.
type diffRNG uint64

func (r *diffRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *diffRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// runDiffWorkload drives one net through the seeded workload and returns a
// transcript: every delivered packet in per-node drain order, plus the
// final counters. With rejectEvery > 0 every node's acceptor turns down
// every rejectEvery-th header it is asked about; acceptors run only in the
// route phase, so each rejection is a kill fired from inside it.
func runDiffWorkload(t *testing.T, cfg Config, seed uint64, injections, burst, rejectEvery int) (transcript []string, stats Stats, cycle uint64) {
	t.Helper()
	n := MustNew(cfg)
	nodes := n.Nodes()
	if rejectEvery > 0 {
		asked := 0
		for node := 0; node < nodes; node++ {
			if err := n.SetAcceptor(node, func(network.Packet) bool {
				asked++
				return asked%rejectEvery != 0
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := diffRNG(seed)
	drain := func(tag string) {
		for node := 0; node < nodes; node++ {
			for {
				p, ok := n.TryRecv(node)
				if !ok {
					break
				}
				transcript = append(transcript, fmt.Sprintf("%s node=%d src=%d dst=%d data=%v", tag, node, p.Src, p.Dst, p.Data))
			}
		}
	}
	injected := 0
	for injected < injections {
		// A burst of injections, then a randomized stretch of ticking —
		// sometimes cycle by cycle, sometimes a drain-to-quiet that
		// exercises the idle fast-forward against dense idling.
		for b := 0; b < burst && injected < injections; b++ {
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
			if err := n.Inject(network.Packet{Src: src, Dst: dst, Data: data}); err != nil {
				// Inject queue full: tick a little and move on; both
				// engines see the identical rng stream either way.
				transcript = append(transcript, "backpressure "+err.Error())
			}
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
		drain("mid")
	}
	if !n.TickUntilQuiet(1_000_000) {
		t.Fatalf("workload did not drain: pending=%d", n.Pending())
	}
	drain("end")
	return transcript, n.FlitStats(), n.Cycle()
}

// TestDenseEventEquivalence is the differential property test: the same
// seeded workload grid through the dense reference and the event engine
// must produce byte-identical Stats, delivery order, and cycle counts for
// every mode × virtual-channel × seed combination.
//
// The 8×8 mesh rows with 3, 5 and 7 virtual channels number their lanes
// so that (router, port) groups straddle the active-lane bitmap's 64-bit
// words. The 8×8 CR row rejects every third header and times out blocked
// heads, so kills fire inside the route phase, where the kill sweep runs
// while the lane bitmap is being visited.
func TestDenseEventEquivalence(t *testing.T) {
	topo := func() topology.Topology { return topology.MustMesh(4, 4) }
	mesh8 := func() topology.Topology { return topology.MustMesh(8, 8) }
	grid := []struct {
		name        string
		cfg         Config
		rejectEvery int // see runDiffWorkload; 0 accepts every header
		burst       int // injections per burst; 0 means 5
	}{
		{"det-vc1", Config{Topology: topo(), Mode: Deterministic}, 0, 0},
		{"det-vc2", Config{Topology: topo(), Mode: Deterministic, VirtualChannels: 2}, 0, 0},
		{"adaptive-vc1", Config{Topology: topo(), Mode: Adaptive}, 0, 0},
		{"adaptive-vc3", Config{Topology: topo(), Mode: Adaptive, VirtualChannels: 3}, 0, 0},
		{"cr", Config{Topology: topo(), Mode: CR}, 0, 0},
		{"cr-tight", Config{Topology: topo(), Mode: CR, KillTimeout: 8, RetryBackoff: 64, BufferFlits: 2}, 0, 0},
		{"fattree-adaptive", Config{Topology: topology.MustFatTree(4, 2), Mode: Adaptive, VirtualChannels: 2}, 0, 0},
		{"fattree-cr", Config{Topology: topology.MustFatTree(4, 2), Mode: CR}, 0, 0},
		{"mesh8-adaptive-vc3", Config{Topology: mesh8(), Mode: Adaptive, VirtualChannels: 3}, 0, 40},
		{"mesh8-adaptive-vc5", Config{Topology: mesh8(), Mode: Adaptive, VirtualChannels: 5}, 0, 40},
		{"mesh8-adaptive-vc7", Config{Topology: mesh8(), Mode: Adaptive, VirtualChannels: 7}, 0, 40},
		{"mesh8-cr-kills", Config{Topology: mesh8(), Mode: CR, KillTimeout: 4, RetryBackoff: 8, BufferFlits: 2}, 3, 40},
	}
	for _, g := range grid {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s/seed%d", g.name, seed)
			t.Run(name, func(t *testing.T) {
				dense := g.cfg
				dense.DenseReference = true
				injections, burst := 120, 5
				if g.burst > 0 {
					// The 8×8 rows offer bigger bursts, so several virtual
					// channels of one port fill at once, straddling groups
					// included.
					injections, burst = 30*g.burst, g.burst
				}
				denseTr, denseStats, denseCycle := runDiffWorkload(t, dense, seed, injections, burst, g.rejectEvery)
				eventTr, eventStats, eventCycle := runDiffWorkload(t, g.cfg, seed, injections, burst, g.rejectEvery)
				if g.rejectEvery > 0 && (eventStats.Rejected == 0 || eventStats.Kills <= eventStats.Rejected) {
					t.Errorf("want rejection and timeout kills; got %d kills, %d of them rejections", eventStats.Kills, eventStats.Rejected)
				}
				if denseStats != eventStats {
					t.Errorf("stats diverge:\n dense %+v\n event %+v", denseStats, eventStats)
				}
				if denseCycle != eventCycle {
					t.Errorf("cycle diverges: dense=%d event=%d", denseCycle, eventCycle)
				}
				if len(denseTr) != len(eventTr) {
					t.Fatalf("transcript length diverges: dense=%d event=%d", len(denseTr), len(eventTr))
				}
				for i := range denseTr {
					if denseTr[i] != eventTr[i] {
						t.Fatalf("transcript diverges at %d:\n dense %s\n event %s", i, denseTr[i], eventTr[i])
					}
				}
			})
		}
	}
}

// TestIdleFastForwardAccounting pins the Stats.Cycles semantics of the
// fast-forward: skipped idle cycles count into Stats.Cycles exactly as if
// they had been ticked, and IdleSkipped reports how many were skipped.
func TestIdleFastForwardAccounting(t *testing.T) {
	cfg := Config{Topology: topology.MustMesh(8, 8), Mode: CR, RetryBackoff: 2048, KillTimeout: 4, PacketWords: 16}
	n := MustNew(cfg)
	// Two long worms racing east along the same row: the second blocks
	// behind the first past the kill timeout and lands in a long backoff.
	long := make([]network.Word, 16)
	if err := n.Inject(network.Packet{Src: 0, Dst: 7, Data: long}); err != nil {
		t.Fatal(err)
	}
	if err := n.Inject(network.Packet{Src: 1, Dst: 7, Data: long}); err != nil {
		t.Fatal(err)
	}
	if !n.TickUntilQuiet(1_000_000) {
		t.Fatal("did not drain")
	}
	if n.FlitStats().Kills == 0 {
		t.Fatal("workload never exercised CR kill/backoff; fast-forward untested")
	}
	if n.IdleSkipped() == 0 {
		t.Fatal("no idle cycles were fast-forwarded")
	}
	if n.FlitStats().Cycles != n.Cycle() {
		t.Fatalf("Stats.Cycles=%d diverges from Cycle()=%d", n.FlitStats().Cycles, n.Cycle())
	}
	// The dense stepper never skips but must land on the same cycle count.
	denseCfg := cfg
	denseCfg.Topology = topology.MustMesh(8, 8)
	denseCfg.DenseReference = true
	dense := MustNew(denseCfg)
	_ = dense.Inject(network.Packet{Src: 0, Dst: 7, Data: long})
	_ = dense.Inject(network.Packet{Src: 1, Dst: 7, Data: long})
	if !dense.TickUntilQuiet(1_000_000) {
		t.Fatal("dense did not drain")
	}
	if dense.IdleSkipped() != 0 {
		t.Fatalf("dense reference fast-forwarded %d cycles", dense.IdleSkipped())
	}
	if dense.FlitStats() != n.FlitStats() {
		t.Fatalf("stats diverge:\n dense %+v\n event %+v", dense.FlitStats(), n.FlitStats())
	}
}

// TestQuietCountersMatchScan holds the O(1) quiet()/Pending() counters to
// the ground truth a full scan computes, at every step of a busy workload.
func TestQuietCountersMatchScan(t *testing.T) {
	cfg := Config{Topology: topology.MustMesh(4, 4), Mode: CR, KillTimeout: 8, RetryBackoff: 32}
	n := MustNew(cfg)
	rng := diffRNG(7)
	scanPending := func() (worms int, recv int) {
		for _, f := range n.flowSeq {
			worms += f.pending()
		}
		for node := range n.recvq {
			recv += n.recvq[node].len()
		}
		return worms, recv
	}
	for step := 0; step < 4000; step++ {
		if rng.intn(4) == 0 {
			src := rng.intn(16)
			dst := rng.intn(16)
			if src != dst {
				_ = n.Inject(network.Packet{Src: src, Dst: dst, Data: []network.Word{network.Word(step)}})
			}
		}
		n.tickOnce()
		if rng.intn(8) == 0 {
			node := rng.intn(16)
			_, _ = n.TryRecv(node)
		}
		queued, recv := scanPending()
		if n.queuedWorms != queued {
			t.Fatalf("step %d: queuedWorms=%d, scan says %d", step, n.queuedWorms, queued)
		}
		if n.recvqTotal != recv {
			t.Fatalf("step %d: recvqTotal=%d, scan says %d", step, n.recvqTotal, recv)
		}
		wantQuiet := n.inflight == 0 && queued == 0
		if n.quiet() != wantQuiet {
			t.Fatalf("step %d: quiet()=%v, scan says %v", step, n.quiet(), wantQuiet)
		}
		if want := n.inflight + queued + recv; n.Pending() != want {
			t.Fatalf("step %d: Pending()=%d, scan says %d", step, n.Pending(), want)
		}
	}
}
