package flitnet

import (
	"fmt"
	"testing"

	"msglayer/internal/network"
	"msglayer/internal/topology"
)

// TestNeighborTableMatchesTopology holds the neighbor table built in New to
// Topology.Neighbor for every (router, port): fat trees of every arity and
// depth the engine is run on, and meshes including the degenerate 1×N
// shapes and their unconnected off-mesh ports.
func TestNeighborTableMatchesTopology(t *testing.T) {
	var topos []topology.Topology
	for _, k := range []int{2, 3, 4} {
		for _, lv := range []int{1, 2, 3} {
			topos = append(topos, topology.MustFatTree(k, lv))
		}
	}
	for _, wh := range [][2]int{{1, 1}, {1, 5}, {5, 1}, {4, 4}, {3, 5}} {
		topos = append(topos, topology.MustMesh(wh[0], wh[1]))
	}
	for _, topo := range topos {
		n := MustNew(Config{Topology: topo})
		for r := range n.routers {
			links := n.routers[r].link
			if len(links) != topo.Ports(r) {
				t.Fatalf("%s: router %d tabulates %d ports, topology has %d", topo.Name(), r, len(links), topo.Ports(r))
			}
			for p, h := range links {
				peer, peerPort, node := topo.Neighbor(r, p)
				if want := (hop{int32(peer), int32(peerPort), int32(node)}); h != want {
					t.Errorf("%s: link(%d,%d) = %+v, Neighbor says %+v", topo.Name(), r, p, h, want)
				}
			}
		}
	}
}

// TestClaimsReleasedAtQuiet is a seeded property over the claim-on-lane
// bookkeeping: whatever the routing mode, channel count and load — up to
// saturation, and in CR with a destination that rejects headers until
// worms exhaust their retries — a drained network holds no claims. Every
// input lane's claim slot and every output-lane owner slot is empty, and
// no worm still lists a claim.
func TestClaimsReleasedAtQuiet(t *testing.T) {
	topos := []topology.Topology{topology.MustFatTree(4, 2), topology.MustMesh(4, 4)}
	for _, mode := range []Mode{Deterministic, Adaptive, CR} {
		for _, vcs := range []int{1, 2, 4} {
			for _, load := range []int{5, 20, 60} { // percent per node per cycle
				for ti, topo := range topos {
					if _, mesh := topo.(*topology.Mesh); mesh && mode == Adaptive && vcs == 1 {
						continue // adaptive mesh routing needs an escape channel to stay deadlock-free
					}
					name := fmt.Sprintf("%s/vc%d/load%d/%s", mode, vcs, load, topo.Name())
					seed := uint64(int(mode)*1000 + vcs*100 + load + ti)
					checkClaimsReleased(t, name, Config{
						Topology:        topo,
						Mode:            mode,
						VirtualChannels: vcs,
						BufferFlits:     3,
						InjectQueue:     8,
						KillTimeout:     16,
						RetryBackoff:    4,
						MaxRetries:      3,
					}, seed, load)
				}
			}
		}
	}
}

func checkClaimsReleased(t *testing.T, name string, cfg Config, seed uint64, loadPct int) {
	t.Helper()
	n := MustNew(cfg)
	rng := diffRNG(seed)
	nodes := n.Nodes()
	if cfg.Mode == CR {
		// One destination rejects two headers in three.
		if err := n.SetAcceptor(nodes-1, func(network.Packet) bool { return rng.intn(3) == 0 }); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 600; c++ {
		for src := 0; src < nodes; src++ {
			if rng.intn(100) >= loadPct {
				continue
			}
			dst := rng.intn(nodes - 1)
			if dst >= src {
				dst++
			}
			_ = n.Inject(network.Packet{Src: src, Dst: dst, Data: []network.Word{network.Word(c)}})
		}
		n.Tick(1)
	}
	if !n.TickUntilQuiet(1_000_000) {
		t.Fatalf("%s: did not drain", name)
	}
	st := n.FlitStats()
	if cfg.Mode == CR && (st.Kills == 0 || st.FailedWorms == 0) {
		t.Fatalf("%s: the rejecting run killed %d and failed %d worms; want both > 0", name, st.Kills, st.FailedWorms)
	}
	for r := range n.routers {
		rt := &n.routers[r]
		for p := range rt.inputs {
			for v := range rt.inputs[p] {
				if w := rt.inputs[p][v].claimW; w != nil {
					t.Fatalf("%s: input lane (%d,%d,%d) still claimed by worm %d", name, r, p, v, w.id)
				}
				if w := rt.owner[p][v]; w != nil {
					t.Fatalf("%s: output lane (%d,%d,%d) still owned by worm %d", name, r, p, v, w.id)
				}
			}
		}
	}
	if len(n.wormPool) == 0 {
		t.Fatalf("%s: no worms came back to the pool", name)
	}
	for _, w := range n.wormPool {
		if len(w.claims) != 0 || w.claimHead != 0 {
			t.Fatalf("%s: finished worm %d still lists claims %v from %d", name, w.id, w.claims, w.claimHead)
		}
	}
}

// TestCRInjectAllocsFlatInPathLength pins a warm CR inject-and-deliver
// loop to the one allocation a delivered packet needs (its payload buffer
// passes to the receiver), however long the path its worm is padded to.
func TestCRInjectAllocsFlatInPathLength(t *testing.T) {
	const width = 16
	n := MustNew(Config{Topology: topology.MustMesh(width, 1), Mode: CR})
	data := []network.Word{7}
	send := func(dst int) {
		if err := n.Inject(network.Packet{Src: 0, Dst: dst, Data: data}); err != nil {
			t.Fatal(err)
		}
		if !n.TickUntilQuiet(10_000) {
			t.Fatal("did not drain")
		}
		if _, ok := n.TryRecv(dst); !ok {
			t.Fatal("lost packet")
		}
	}
	for i := 0; i < 8; i++ { // create both flows and warm the pools
		send(1)
		send(width - 1)
	}
	short := testing.AllocsPerRun(100, func() { send(1) })
	long := testing.AllocsPerRun(100, func() { send(width - 1) })
	if short > 1 || long > 1 {
		t.Errorf("allocs per CR packet: %v over a 2-router path, %v over a %d-router path; want <= 1 each", short, long, width)
	}
}

// TestPktQueueChunks drives the chunked delivery queue across many chunk
// boundaries with interleaved pushes and pops: it stays FIFO, pop clears
// the slots it leaves, and once its chunks are recycled a push-pop cycle
// allocates nothing.
func TestPktQueueChunks(t *testing.T) {
	var q pktQueue
	rng := diffRNG(3)
	next, want := 0, 0
	for step := 0; step < 20*pktChunkLen; step++ {
		if rng.intn(3) != 0 {
			q.push(network.Packet{Src: next, Data: []network.Word{network.Word(next)}})
			next++
			continue
		}
		p, ok := q.pop()
		if ok != (want < next) {
			t.Fatalf("step %d: pop ok=%v with %d queued", step, ok, next-want)
		}
		if ok {
			if p.Src != want {
				t.Fatalf("step %d: popped %d, want %d", step, p.Src, want)
			}
			want++
		}
		if q.len() != next-want {
			t.Fatalf("step %d: len %d, want %d", step, q.len(), next-want)
		}
	}
	for c := q.head; c != nil; c = c.next {
		for i := range c.pkts {
			live := (c != q.head || i >= q.hi) && (c != q.tail || i < q.ti)
			if !live && c.pkts[i].Data != nil {
				t.Fatalf("slot %d of a chunk still references a popped payload", i)
			}
		}
	}
	for q.len() > 0 {
		q.pop()
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 3*pktChunkLen; i++ {
			q.push(network.Packet{Src: i})
		}
		for q.len() > 0 {
			q.pop()
		}
	})
	if allocs != 0 {
		t.Errorf("refilling a drained queue made %v allocs, want 0", allocs)
	}
}
