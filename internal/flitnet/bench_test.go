package flitnet

import (
	"testing"

	"msglayer/internal/network"
	"msglayer/internal/topology"
)

// BenchmarkTickOnce measures one simulator cycle with worms in flight —
// the hot path of every netload sweep point. Re-seeding the network when
// it drains happens outside the timer, so the reported allocs/op are the
// tick phases alone: the zero-allocation invariant the perfreg gate holds
// the simulator to.
func BenchmarkTickOnce(b *testing.B) {
	n := MustNew(Config{Topology: topology.MustFatTree(4, 2), Mode: Adaptive})
	reseed := func() {
		for src := 0; src < 16; src++ {
			for node := 0; node < 16; node++ {
				for {
					if _, ok := n.TryRecv(node); !ok {
						break
					}
				}
			}
			_ = n.Inject(network.Packet{Src: src, Dst: 15 - src, Data: []network.Word{1, 2, 3, 4}})
		}
	}
	reseed()
	// Warm the pools and flow tables before measuring.
	for i := 0; i < 2000; i++ {
		if n.quiet() {
			reseed()
		}
		n.tickOnce()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n.quiet() {
			b.StopTimer()
			reseed()
			b.StartTimer()
		}
		n.tickOnce()
	}
}

// BenchmarkTickLoaded measures simulator cycles per second under steady
// uniform traffic on a 16-node fat tree, including injection and receive
// drain — the full harness loop.
func BenchmarkTickLoaded(b *testing.B) {
	n := MustNew(Config{Topology: topology.MustFatTree(4, 2), Mode: Adaptive})
	rng := uint64(1)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 33
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := int(next()) % 16
		dst := int(next()) % 16
		if src != dst {
			_ = n.Inject(network.Packet{Src: src, Dst: dst, Data: []network.Word{1}})
		}
		n.Tick(1)
		for node := 0; node < 16; node++ {
			for {
				if _, ok := n.TryRecv(node); !ok {
					break
				}
			}
		}
	}
}

// saturatedStep builds the 16-node fat tree under uniform traffic at an
// offered load of 0.3 packets per node per cycle, past saturation, and
// returns one cycle of it: offer the cycle's packets, tick, and read every
// delivered packet. The reader hands each payload buffer back to the net,
// as a receiver that recycles its buffers would, so the warm loop's only
// allocations would be the engine's own. Most head routings are retries
// of a head that was blocked the cycle before.
func saturatedStep(mode Mode) (*Net, func()) {
	n := MustNew(Config{Topology: topology.MustFatTree(4, 2), Mode: mode, BufferFlits: 3, InjectQueue: 8})
	rng := diffRNG(1)
	data := []network.Word{1}
	step := func() {
		for src := 0; src < 16; src++ {
			if rng.intn(10) >= 3 {
				continue
			}
			dst := rng.intn(15)
			if dst >= src {
				dst++
			}
			_ = n.Inject(network.Packet{Src: src, Dst: dst, Data: data})
		}
		n.Tick(1)
		for node := 0; node < 16; node++ {
			for {
				p, ok := n.TryRecv(node)
				if !ok {
					break
				}
				n.putWords(p.Data)
			}
		}
	}
	// Warm the pools, flow tables, queues and wake heap.
	for i := 0; i < 5000; i++ {
		step()
	}
	return n, step
}

// BenchmarkTickSaturated measures one cycle of the saturated fat tree in
// CR and adaptive mode: the blocked-head path, where a head retries its
// routing every cycle. It reports 0 allocs/op (TestTickSaturatedAllocs
// holds it to that).
func BenchmarkTickSaturated(b *testing.B) {
	for _, mode := range []Mode{CR, Adaptive} {
		b.Run(mode.String(), func(b *testing.B) {
			_, step := saturatedStep(mode)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// idleNet builds a large mesh with every flow parked in CR retry backoff —
// nothing can move for thousands of cycles. This is the workload the idle
// fast-forward targets: the dense engine pays a full topology scan per
// cycle, the event engine jumps straight to the earliest wake.
func idleNet(b *testing.B, dense bool) *Net {
	b.Helper()
	n := MustNew(Config{
		Topology:       topology.MustMesh(16, 16),
		Mode:           CR,
		RetryBackoff:   1 << 20,
		KillTimeout:    4,
		PacketWords:    16,
		DenseReference: dense,
	})
	// Two long worms racing east along row 0: the second blocks behind the
	// first past the kill timeout and parks in a retry backoff a million
	// cycles out, leaving the mesh idle but not drained.
	long := make([]network.Word, 16)
	if err := n.Inject(network.Packet{Src: 0, Dst: 15, Data: long}); err != nil {
		b.Fatal(err)
	}
	if err := n.Inject(network.Packet{Src: 1, Dst: 15, Data: long}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		n.tickOnce()
	}
	if n.quiet() || n.FlitStats().Kills == 0 {
		b.Fatal("idle workload did not park a worm in backoff")
	}
	return n
}

// BenchmarkTickIdle measures advancing a large idle mesh (256 routers, all
// pending worms in retry backoff) by 1024 cycles with the event-driven
// engine. The perfreg gate requires this to beat BenchmarkTickIdleDense by
// at least 10×.
func BenchmarkTickIdle(b *testing.B) {
	n := idleNet(b, false)
	start := n.Cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Tick(1024)
	}
	b.StopTimer()
	if n.Cycle() != start+uint64(b.N)*1024 {
		b.Fatalf("cycle accounting: got %d, want %d", n.Cycle(), start+uint64(b.N)*1024)
	}
}

// BenchmarkTickIdleDense is the same idle workload on the retained dense
// reference stepper — the PR 3 baseline the fast-forward is gated against.
func BenchmarkTickIdleDense(b *testing.B) {
	n := idleNet(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Tick(1024)
	}
}

// BenchmarkTickSparse measures one cycle of a large mesh at ~1% lane
// occupancy: a handful of long worms crossing a 256-router mesh that is
// otherwise empty. The dense engine scans all 1280 port groups; the event
// engine touches only the occupied lanes.
func BenchmarkTickSparse(b *testing.B) {
	n := MustNew(Config{Topology: topology.MustMesh(16, 16), Mode: Deterministic, PacketWords: 32})
	payload := make([]network.Word, 30)
	reseed := func() {
		for node := 0; node < 256; node++ {
			for {
				if _, ok := n.TryRecv(node); !ok {
					break
				}
			}
		}
		for _, src := range []int{0, 17, 34, 51} {
			if err := n.Inject(network.Packet{Src: src, Dst: 255 - src, Data: payload}); err != nil {
				b.Fatal(err)
			}
		}
	}
	reseed()
	for i := 0; i < 2000; i++ {
		if n.quiet() {
			reseed()
		}
		n.tickOnce()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n.quiet() {
			b.StopTimer()
			reseed()
			b.StartTimer()
		}
		n.tickOnce()
	}
}

// BenchmarkTickLarge measures one simulator cycle of a 1024-router mesh
// under heavy bisection traffic (every node sending to its mirror).
// Re-seeding when the network drains happens outside the timer.
func BenchmarkTickLarge(b *testing.B) {
	n := MustNew(Config{
		Topology:    topology.MustMesh(32, 32),
		Mode:        Deterministic,
		PacketWords: 8,
	})
	payload := make([]network.Word, 6)
	reseed := func() {
		for node := 0; node < 1024; node++ {
			for {
				if _, ok := n.TryRecv(node); !ok {
					break
				}
			}
		}
		for src := 0; src < 1024; src++ {
			if err := n.Inject(network.Packet{Src: src, Dst: 1023 - src, Data: payload}); err != nil {
				b.Fatal(err)
			}
			if err := n.Inject(network.Packet{Src: src, Dst: (src + 512) % 1024, Data: payload}); err != nil {
				b.Fatal(err)
			}
		}
	}
	reseed()
	for i := 0; i < 2000; i++ {
		if n.quiet() {
			reseed()
		}
		n.tickOnce()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n.quiet() {
			b.StopTimer()
			reseed()
			b.StartTimer()
		}
		n.tickOnce()
	}
}

// BenchmarkWormEndToEnd measures one packet's full flit-level journey.
func BenchmarkWormEndToEnd(b *testing.B) {
	n := MustNew(Config{Topology: topology.MustMesh(4, 4), Mode: Deterministic})
	payload := []network.Word{1, 2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Inject(network.Packet{Src: 0, Dst: 15, Data: payload}); err != nil {
			b.Fatal(err)
		}
		if !n.TickUntilQuiet(100) {
			b.Fatal("did not drain")
		}
		if _, ok := n.TryRecv(15); !ok {
			b.Fatal("lost packet")
		}
	}
}
