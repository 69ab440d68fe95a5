package topology

import (
	"testing"
	"testing/quick"
)

// checkLinkSymmetry verifies that every router-to-router link is symmetric:
// following a port and then the peer's returned port leads back.
func checkLinkSymmetry(t *testing.T, topo Topology) {
	t.Helper()
	for r := 0; r < topo.NumRouters(); r++ {
		for p := 0; p < topo.Ports(r); p++ {
			peer, peerPort, _ := topo.Neighbor(r, p)
			if peer == Terminal {
				continue // node attachment or unconnected edge port
			}
			back, backPort, backNode := topo.Neighbor(peer, peerPort)
			if backNode != Terminal || back != r || backPort != p {
				t.Errorf("%s: link (%d,%d)->(%d,%d) not symmetric: back=(%d,%d,node=%d)",
					topo.Name(), r, p, peer, peerPort, back, backPort, backNode)
			}
		}
	}
}

// checkNodeAttachment verifies NodePort and Neighbor agree for every node.
func checkNodeAttachment(t *testing.T, topo Topology) {
	t.Helper()
	for nd := 0; nd < topo.Nodes(); nd++ {
		r, p := topo.NodePort(nd)
		peer, _, node := topo.Neighbor(r, p)
		if peer != Terminal || node != nd {
			t.Errorf("%s: node %d attaches at (%d,%d) but Neighbor says (%d,_,%d)",
				topo.Name(), nd, r, p, peer, node)
		}
	}
}

// checkAllPairsRoutable verifies DeterministicPath succeeds for every
// src/dst pair.
func checkAllPairsRoutable(t *testing.T, topo Topology) {
	t.Helper()
	for src := 0; src < topo.Nodes(); src++ {
		for dst := 0; dst < topo.Nodes(); dst++ {
			if path := DeterministicPath(topo, src, dst); path == nil {
				t.Fatalf("%s: no deterministic path %d -> %d", topo.Name(), src, dst)
			}
		}
	}
}

func TestFatTreeShape(t *testing.T) {
	for _, tc := range []struct {
		k, n, nodes, routers int
	}{
		{2, 1, 2, 1},
		{2, 2, 4, 4},
		{2, 3, 8, 12},
		{4, 2, 16, 8},
		{4, 3, 64, 48},
	} {
		ft := MustFatTree(tc.k, tc.n)
		if ft.Nodes() != tc.nodes {
			t.Errorf("fattree(%d,%d) nodes = %d, want %d", tc.k, tc.n, ft.Nodes(), tc.nodes)
		}
		if ft.NumRouters() != tc.routers {
			t.Errorf("fattree(%d,%d) routers = %d, want %d", tc.k, tc.n, ft.NumRouters(), tc.routers)
		}
		if ft.Arity() != tc.k || ft.Levels() != tc.n {
			t.Errorf("fattree(%d,%d) reports arity %d levels %d", tc.k, tc.n, ft.Arity(), ft.Levels())
		}
	}
}

func TestFatTreeRejectsBadArgs(t *testing.T) {
	for _, tc := range [][2]int{{1, 2}, {0, 1}, {4, 0}, {2, 25}} {
		if _, err := NewFatTree(tc[0], tc[1]); err == nil {
			t.Errorf("NewFatTree(%d,%d) accepted invalid args", tc[0], tc[1])
		}
	}
}

func TestMustFatTreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustFatTree(1, 1)
}

func TestFatTreePortCounts(t *testing.T) {
	ft := MustFatTree(4, 3)
	for r := 0; r < ft.NumRouters(); r++ {
		want := 8
		if r/16 == 2 { // top level has no up ports
			want = 4
		}
		if got := ft.Ports(r); got != want {
			t.Errorf("router %d ports = %d, want %d", r, got, want)
		}
	}
}

func TestFatTreeInvariants(t *testing.T) {
	for _, tc := range [][2]int{{2, 2}, {2, 3}, {4, 2}, {4, 3}} {
		ft := MustFatTree(tc[0], tc[1])
		checkLinkSymmetry(t, ft)
		checkNodeAttachment(t, ft)
		checkAllPairsRoutable(t, ft)
	}
}

func TestFatTreePathLengths(t *testing.T) {
	ft := MustFatTree(4, 3)
	// Same leaf router: path is just that router.
	if p := DeterministicPath(ft, 0, 1); len(p) != 1 {
		t.Errorf("same-leaf path length = %d, want 1", len(p))
	}
	// Nodes 0 and 63 differ in the top digit: full climb and descent,
	// 2*levels - 1 routers.
	if p := DeterministicPath(ft, 0, 63); len(p) != 5 {
		t.Errorf("cross-tree path length = %d, want 5 (%v)", len(p), p)
	}
	// Self-delivery stays at the leaf.
	if p := DeterministicPath(ft, 7, 7); len(p) != 1 {
		t.Errorf("self path length = %d, want 1", len(p))
	}
}

func TestFatTreeMultipath(t *testing.T) {
	ft := MustFatTree(4, 2)
	// A non-ancestor leaf router offers all k up ports.
	r, _ := ft.NodePort(0)
	cands := ft.Route(r, -1, 15) // node 15 is under a different leaf
	if len(cands) != 4 {
		t.Fatalf("ascent candidates = %d, want 4 (%v)", len(cands), cands)
	}
	seen := map[int]bool{}
	for _, p := range cands {
		if p < 4 || p >= 8 {
			t.Errorf("ascent candidate %d is not an up port", p)
		}
		seen[p] = true
	}
	if len(seen) != 4 {
		t.Errorf("duplicate ascent candidates: %v", cands)
	}
	// An ancestor router has exactly one descent candidate.
	top := ft.NumRouters() - 1
	if got := ft.Route(top, -1, 3); len(got) != 1 {
		t.Errorf("descent candidates = %v, want exactly one", got)
	}
}

// Every up-port choice during ascent still leads to a router from which the
// destination remains reachable — multipath is harmless.
func TestFatTreeAllAscentPathsReachDestination(t *testing.T) {
	ft := MustFatTree(4, 2)
	var walk func(router, dst, depth int) bool
	walk = func(router, dst, depth int) bool {
		if depth > 8 {
			return false
		}
		cands := ft.Route(router, -1, dst)
		if len(cands) == 0 {
			return false
		}
		for _, p := range cands {
			peer, _, node := ft.Neighbor(router, p)
			if node == dst {
				continue // delivered
			}
			if node != Terminal {
				return false // delivered to the wrong node
			}
			if !walk(peer, dst, depth+1) {
				return false
			}
		}
		return true
	}
	for _, pair := range [][2]int{{0, 15}, {3, 12}, {5, 10}, {0, 1}} {
		r, _ := ft.NodePort(pair[0])
		if !walk(r, pair[1], 0) {
			t.Errorf("some path %d -> %d fails to deliver", pair[0], pair[1])
		}
	}
}

func TestFatTreeRouteRejectsBadDestination(t *testing.T) {
	ft := MustFatTree(2, 2)
	if got := ft.Route(0, -1, -1); got != nil {
		t.Errorf("Route(-1) = %v", got)
	}
	if got := ft.Route(0, -1, ft.Nodes()); got != nil {
		t.Errorf("Route(N) = %v", got)
	}
}

func TestMeshShape(t *testing.T) {
	m := MustMesh(4, 3)
	if m.Nodes() != 12 || m.NumRouters() != 12 {
		t.Errorf("mesh(4x3) nodes/routers = %d/%d", m.Nodes(), m.NumRouters())
	}
	if m.Width() != 4 || m.Height() != 3 {
		t.Errorf("dimensions = %dx%d", m.Width(), m.Height())
	}
	if m.Name() != "mesh(4x3)" {
		t.Errorf("Name = %q", m.Name())
	}
	x, y := m.XY(7)
	if x != 3 || y != 1 {
		t.Errorf("XY(7) = (%d,%d), want (3,1)", x, y)
	}
	if m.ID(3, 1) != 7 {
		t.Errorf("ID(3,1) = %d, want 7", m.ID(3, 1))
	}
}

func TestMeshRejectsBadArgs(t *testing.T) {
	for _, tc := range [][2]int{{0, 4}, {4, 0}, {-1, 2}, {2048, 2048}} {
		if _, err := NewMesh(tc[0], tc[1]); err == nil {
			t.Errorf("NewMesh(%d,%d) accepted invalid args", tc[0], tc[1])
		}
	}
}

func TestMustMeshPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustMesh(0, 0)
}

func TestMeshInvariants(t *testing.T) {
	for _, tc := range [][2]int{{1, 1}, {4, 1}, {1, 5}, {4, 4}, {5, 3}} {
		m := MustMesh(tc[0], tc[1])
		checkLinkSymmetry(t, m)
		checkNodeAttachment(t, m)
		checkAllPairsRoutable(t, m)
	}
}

func TestMeshEdgePortsUnconnected(t *testing.T) {
	m := MustMesh(3, 3)
	// Corner router 0 has no west or south neighbors.
	for _, p := range []int{PortWest, PortSouth} {
		peer, _, node := m.Neighbor(0, p)
		if peer != Terminal || node != Terminal {
			t.Errorf("corner port %d should be unconnected, got (%d,%d)", p, peer, node)
		}
	}
}

// Dimension-order routing: the deterministic path length equals the
// Manhattan distance plus one, and X progress completes before Y begins.
func TestMeshDimensionOrderPaths(t *testing.T) {
	m := MustMesh(5, 4)
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			path := DeterministicPath(m, src, dst)
			sx, sy := m.XY(src)
			dx, dy := m.XY(dst)
			manhattan := abs(sx-dx) + abs(sy-dy)
			if len(path) != manhattan+1 {
				t.Fatalf("path %d->%d has %d routers, want %d", src, dst, len(path), manhattan+1)
			}
			turned := false
			for i := 1; i < len(path); i++ {
				px, py := m.XY(path[i-1])
				cx, cy := m.XY(path[i])
				if cy != py {
					turned = true
				} else if turned {
					t.Fatalf("path %d->%d moves in X after Y: %v", src, dst, path)
				}
				if abs(cx-px)+abs(cy-py) != 1 {
					t.Fatalf("path %d->%d has a non-unit hop: %v", src, dst, path)
				}
			}
		}
	}
}

func TestMeshAdaptiveCandidatesAreProductive(t *testing.T) {
	m := MustMesh(4, 4)
	// From (0,0) to (2,2): both east and north are productive.
	cands := m.Route(m.ID(0, 0), -1, m.ID(2, 2))
	if len(cands) != 2 || cands[0] != PortEast || cands[1] != PortNorth {
		t.Errorf("candidates = %v, want [east north]", cands)
	}
	// Same column: only Y movement.
	cands = m.Route(m.ID(2, 0), -1, m.ID(2, 3))
	if len(cands) != 1 || cands[0] != PortNorth {
		t.Errorf("candidates = %v, want [north]", cands)
	}
	// Arrived: deliver locally.
	cands = m.Route(5, -1, 5)
	if len(cands) != 1 || cands[0] != PortLocal {
		t.Errorf("candidates = %v, want [local]", cands)
	}
}

func TestMeshRouteRejectsBadDestination(t *testing.T) {
	m := MustMesh(2, 2)
	if got := m.Route(0, -1, 99); got != nil {
		t.Errorf("Route(99) = %v", got)
	}
}

// Property: on random meshes, random pairs route with minimal hop count.
func TestMeshRoutingProperty(t *testing.T) {
	prop := func(wRaw, hRaw, aRaw, bRaw uint8) bool {
		w := int(wRaw%6) + 1
		h := int(hRaw%6) + 1
		m := MustMesh(w, h)
		a := int(aRaw) % m.Nodes()
		b := int(bRaw) % m.Nodes()
		path := DeterministicPath(m, a, b)
		ax, ay := m.XY(a)
		bx, by := m.XY(b)
		return len(path) == abs(ax-bx)+abs(ay-by)+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: on random fat trees, random pairs are deterministically
// routable and the path never exceeds 2*levels - 1 routers.
func TestFatTreeRoutingProperty(t *testing.T) {
	prop := func(kRaw, nRaw, aRaw, bRaw uint8) bool {
		k := int(kRaw%3) + 2 // 2..4
		n := int(nRaw%3) + 1 // 1..3
		ft := MustFatTree(k, n)
		a := int(aRaw) % ft.Nodes()
		b := int(bRaw) % ft.Nodes()
		path := DeterministicPath(ft, a, b)
		return path != nil && len(path) <= 2*n-1+2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestFatTreeDigitHelpers holds the tabulated digit helpers to their
// digit-by-digit definitions on every router word and destination,
// including ancestor's whole-word shortcut.
func TestFatTreeDigitHelpers(t *testing.T) {
	for _, tc := range [][2]int{{2, 1}, {2, 3}, {3, 2}, {3, 3}, {4, 1}, {4, 2}, {4, 3}} {
		ft := MustFatTree(tc[0], tc[1])
		k, n := tc[0], tc[1]
		digit := func(x, i int) int {
			for ; i > 0; i-- {
				x /= k
			}
			return x % k
		}
		for x := 0; x < ft.Nodes(); x++ {
			for i := 0; i < n; i++ {
				if got := ft.digit(x, i); got != digit(x, i) {
					t.Fatalf("%s: digit(%d,%d) = %d, want %d", ft.Name(), x, i, got, digit(x, i))
				}
				for v := 0; v < k; v++ {
					got := ft.setDigit(x, i, v)
					for j := 0; j < n; j++ {
						want := digit(x, j)
						if j == i {
							want = v
						}
						if digit(got, j) != want {
							t.Fatalf("%s: setDigit(%d,%d,%d) = %d", ft.Name(), x, i, v, got)
						}
					}
				}
			}
		}
		for l := 0; l < n; l++ {
			for w := 0; w < ft.perLvl; w++ {
				for dst := 0; dst < ft.Nodes(); dst++ {
					want := true
					for i := l; i < n-1; i++ {
						if digit(w, i) != digit(dst/k, i) {
							want = false
						}
					}
					if got := ft.ancestor(l, w, dst); got != want {
						t.Fatalf("%s: ancestor(%d,%d,%d) = %v, want %v", ft.Name(), l, w, dst, got, want)
					}
				}
			}
		}
	}
}
