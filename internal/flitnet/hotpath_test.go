package flitnet

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"msglayer/internal/network"
	"msglayer/internal/topology"
)

// TestNeighborTableMatchesTopology holds the neighbor table built in New to
// Topology.Neighbor for every (router, port): fat trees of every arity and
// depth the engine is run on, and meshes including the degenerate 1×N
// shapes and their unconnected off-mesh ports. Each router link's lane
// names the peer's input lanes, and each node's injection lane the lanes
// of the port Topology.NodePort names.
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
				want := hop{int32(peer), int32(peerPort), int32(node), -1}
				if peer != topology.Terminal {
					want.lane = n.laneID(peer, peerPort, 0)
					if n.laneRouter[want.lane] != int32(peer) || n.lanePort[want.lane] != int32(peerPort) {
						t.Fatalf("%s: lane %d is not input (%d,%d,0)", topo.Name(), want.lane, peer, peerPort)
					}
				}
				if h != want {
					t.Errorf("%s: link(%d,%d) = %+v, Neighbor says %+v", topo.Name(), r, p, h, want)
				}
			}
		}
		for node := 0; node < topo.Nodes(); node++ {
			r, p := topo.NodePort(node)
			if id := n.nodeIn[node]; id != n.laneID(r, p, 0) || n.laneRouter[id] != int32(r) || n.lanePort[id] != int32(p) {
				t.Errorf("%s: node %d injects on lane %d, not on input (%d,%d,0)", topo.Name(), node, n.nodeIn[node], r, p)
			}
		}
	}
}

// TestRouteCacheMatchesTopology holds every lane's route cache to
// Topology.RouteAppend: for each destination, every lane of every router
// is routed through its cache and each answer, and each lane's cached
// slice afterwards, must equal the topology's candidates. Visiting every
// lane before checking any catches caches that share storage; routing
// each destination twice, and in descending order after ascending,
// covers hits and misses. Refills stay within the capacity carved in New.
func TestRouteCacheMatchesTopology(t *testing.T) {
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
		for _, vcs := range []int{1, 3} {
			n := MustNew(Config{Topology: topo, Mode: Adaptive, VirtualChannels: vcs})
			nodes := topo.Nodes()
			dsts := make([]int, 0, 4*nodes)
			for pass := 0; pass < 2; pass++ {
				for d := 0; d < nodes; d++ {
					dsts = append(dsts, d, d)
				}
				for d := nodes - 1; d >= 0; d-- {
					dsts = append(dsts, d)
				}
			}
			for _, dst := range dsts {
				for r := range n.routers {
					for p := 0; p < topo.Ports(r); p++ {
						for v := 0; v < vcs; v++ {
							in := &n.lane[n.laneID(r, p, v)]
							got := n.routeFrom(r, p, in, dst)
							if want := topo.Route(r, p, dst); !slices.Equal(got, want) {
								t.Fatalf("%s vc%d: lane (%d,%d,%d) routes dst %d to %v, topology says %v", topo.Name(), vcs, r, p, v, dst, got, want)
							}
							if cap(in.route) != topo.Ports(r) {
								t.Fatalf("%s vc%d: lane (%d,%d,%d) cache capacity %d, router has %d ports", topo.Name(), vcs, r, p, v, cap(in.route), topo.Ports(r))
							}
						}
					}
				}
				for r := range n.routers {
					for p := 0; p < topo.Ports(r); p++ {
						for v := 0; v < vcs; v++ {
							in := &n.lane[n.laneID(r, p, v)]
							if want := topo.Route(r, p, dst); in.routeDst != dst || !slices.Equal(in.route, want) {
								t.Fatalf("%s vc%d: after routing every lane to %d, lane (%d,%d,%d) caches dst %d as %v, want %v", topo.Name(), vcs, dst, r, p, v, in.routeDst, in.route, want)
							}
						}
					}
				}
			}
			in := &n.lane[n.laneID(0, 0, 0)]
			if allocs := testing.AllocsPerRun(10, func() {
				for dst := 0; dst < nodes; dst++ {
					n.routeFrom(0, 0, in, dst)
				}
			}); allocs != 0 {
				t.Errorf("%s vc%d: refilling a route cache made %v allocs, want 0", topo.Name(), vcs, allocs)
			}
		}
	}
}

// TestWorklistBitmap drives the bitmap worklist the way the phases do,
// against a plain set: at each phase the fold moves every earlier addition
// in, the visit sees exactly the set as of the fold in ascending order,
// additions made during the visit wait for the next fold even when they
// land ahead of the visiting position, ids dropped at their visit leave,
// and count always equals a full scan of both bitmaps.
func TestWorklistBitmap(t *testing.T) {
	const ids = 200 // a partial last word
	var w worklist
	w.grow(ids)
	if len(w.on) != (ids+63)/64 {
		t.Fatalf("grow(%d) made %d words", ids, len(w.on))
	}
	rng := diffRNG(11)
	set := make(map[int32]bool)    // the active set, as of now
	folded := make(map[int32]bool) // the ids the next visit must see
	scan := func() int {
		c := 0
		for i := range w.on {
			if w.on[i]&w.added[i] != 0 {
				t.Fatalf("word %d: on and added overlap", i)
			}
			c += bits.OnesCount64(w.on[i] | w.added[i])
		}
		return c
	}
	for phase := 0; phase < 300; phase++ {
		for k := rng.intn(20); k > 0; k-- {
			id := int32(rng.intn(ids))
			w.add(id)
			set[id] = true
		}
		if w.count() != scan() || w.count() != len(set) {
			t.Fatalf("phase %d: count %d, scan %d, set %d", phase, w.count(), scan(), len(set))
		}
		w.fold()
		for id := range set {
			folded[id] = true
		}
		var want []int32
		for id := range folded {
			want = append(want, id)
		}
		slices.Sort(want)
		var got []int32
		for i, word := range w.on {
			for ; word != 0; word &= word - 1 {
				id := bit(i, word)
				got = append(got, id)
				// Mid-visit additions: anywhere, including ids ahead of
				// this one that are not yet active.
				for k := rng.intn(3); k > 0; k-- {
					add := int32(rng.intn(ids))
					w.add(add)
					set[add] = true
				}
				if rng.intn(2) == 0 {
					w.drop(id)
					delete(set, id)
					delete(folded, id)
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("phase %d: visited %v, want the folded set %v", phase, got, want)
		}
		if w.count() != scan() || w.count() != len(set) {
			t.Fatalf("phase %d after visit: count %d, scan %d, set %d", phase, w.count(), scan(), len(set))
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
		for p := range rt.owner {
			for v := range rt.owner[p] {
				if w := n.lane[n.laneID(r, p, v)].claimW; w != nil {
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

// TestTickSaturatedAllocs holds BenchmarkTickSaturated's loop to zero
// allocations: past saturation, where most head routings are retries, the
// inject, route and receive paths allocate nothing once warm. It also
// checks the load is past saturation: the inject queues backpressure, and
// in CR blocked heads time out.
func TestTickSaturatedAllocs(t *testing.T) {
	for _, mode := range []Mode{CR, Adaptive} {
		n, step := saturatedStep(mode)
		if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
			t.Errorf("%s: %v allocs per saturated cycle, want 0", mode, allocs)
		}
		st := n.FlitStats()
		if st.Backpressure == 0 {
			t.Errorf("%s: load 0.3 never backpressured; the fat tree is not saturated", mode)
		}
		if mode == CR && st.Kills == 0 {
			t.Errorf("%s: no blocked head timed out", mode)
		}
	}
}

// TestLargeMeshMemoryFollowsTraffic builds a 128×128 mesh, where any
// nodes × nodes table would be a gigabyte, and holds New to a fixed
// budget per lane; a few flows then grow the flow table only to the
// flows seen, and each flow is found again by its (src, dst) pair.
func TestLargeMeshMemoryFollowsTraffic(t *testing.T) {
	const side = 128
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := MustNew(Config{Topology: topology.MustMesh(side, side), Mode: Adaptive})
	runtime.ReadMemStats(&after)
	const perLane = 512
	if got, lanes := after.TotalAlloc-before.TotalAlloc, uint64(len(n.lane)); got > perLane*lanes {
		t.Fatalf("New allocated %d bytes for %d lanes (%d per lane), want <= %d per lane", got, lanes, got/lanes, perLane)
	}
	pairs := [][2]int{{0, side*side - 1}, {side*side - 1, 0}, {side + 1, 5 * side}, {7, 7 * side}, {0, 1}}
	for i, pr := range pairs {
		if err := n.Inject(network.Packet{Src: pr[0], Dst: pr[1], Data: []network.Word{network.Word(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if !n.TickUntilQuiet(100_000) {
		t.Fatal("did not drain")
	}
	if len(n.flowSeq) != len(pairs) || len(n.flows.slot) > 16 {
		t.Fatalf("%d flows in a %d-slot table, want %d flows in at most 16 slots", len(n.flowSeq), len(n.flows.slot), len(pairs))
	}
	for i, pr := range pairs {
		if f := n.flows.find(n.flowSeq, pr[0], pr[1]); f != n.flowSeq[i] {
			t.Errorf("flow %v not found", pr)
		}
	}
	if f := n.flows.find(n.flowSeq, 1, 0); f != nil {
		t.Errorf("unused pair (1, 0) found flow %v", f.key)
	}
}

// TestFlowTableFindsEveryFlow fills the flow table through several
// doublings, pairs in scrambled order, and checks after each insert that
// every flow so far is found and a pair not yet inserted is not.
func TestFlowTableFindsEveryFlow(t *testing.T) {
	const nodes = 40
	var tab flowTable
	var seq []*flow
	for i := 0; i < nodes*nodes; i++ {
		k := (i * 797) % (nodes * nodes) // 797 is prime to 1600: a permutation
		f := &flow{key: flowKey{k / nodes, k % nodes}, idx: int32(len(seq))}
		if tab.find(seq, f.key.src, f.key.dst) != nil {
			t.Fatalf("pair %v found before insert", f.key)
		}
		seq = append(seq, f)
		tab.insert(seq)
		if 2*len(seq) > len(tab.slot) {
			t.Fatalf("%d flows in %d slots: more than half full", len(seq), len(tab.slot))
		}
		if i%97 == 0 || i == nodes*nodes-1 {
			for _, g := range seq {
				if tab.find(seq, g.key.src, g.key.dst) != g {
					t.Fatalf("after %d inserts, flow %v not found", len(seq), g.key)
				}
			}
		}
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
