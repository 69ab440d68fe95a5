package topology

import "fmt"

// FatTree is a k-ary n-tree: k^n processing nodes served by n levels of
// k^(n-1) routers each. Every router has k down ports (0..k-1) and, below
// the top level, k up ports (k..2k-1). The redundant up links are the
// multipath structure of the CM-5 data network: a packet may climb through
// any up port, so two packets between the same pair of nodes can take
// different paths and arrive out of order — the network feature whose
// software cost the paper quantifies.
//
// Router identity: level l in 0..n-1 and an (n-1)-digit base-k word w.
// Router (l, w) connects upward to the k routers (l+1, w') where w' differs
// from w only in digit position l. Level-0 routers are leaves; down port v
// of leaf w connects to node w*k + v.
type FatTree struct {
	k, n    int
	nodes   int
	perLvl  int // routers per level = k^(n-1)
	routers int
	// pow[i] is k^i for i in 0..n-1, so the digit helpers divide once
	// instead of looping over the digit position.
	pow []int
}

// NewFatTree constructs a k-ary n-tree. Arity k must be at least 2 and the
// number of levels n at least 1.
func NewFatTree(k, n int) (*FatTree, error) {
	if k < 2 {
		return nil, fmt.Errorf("topology: fat tree arity must be >= 2, got %d", k)
	}
	if n < 1 {
		return nil, fmt.Errorf("topology: fat tree needs >= 1 level, got %d", n)
	}
	pow := make([]int, n)
	nodes := 1
	for i := 0; i < n; i++ {
		pow[i] = nodes
		nodes *= k
		if nodes > 1<<20 {
			return nil, fmt.Errorf("topology: fat tree %d-ary %d-tree too large", k, n)
		}
	}
	perLvl := nodes / k
	return &FatTree{k: k, n: n, nodes: nodes, perLvl: perLvl, routers: n * perLvl, pow: pow}, nil
}

// MustFatTree is NewFatTree that panics on invalid arguments.
func MustFatTree(k, n int) *FatTree {
	t, err := NewFatTree(k, n)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements Topology.
func (t *FatTree) Name() string { return fmt.Sprintf("fattree(%d,%d)", t.k, t.n) }

// Nodes implements Topology.
func (t *FatTree) Nodes() int { return t.nodes }

// NumRouters implements Topology.
func (t *FatTree) NumRouters() int { return t.routers }

// Arity returns k.
func (t *FatTree) Arity() int { return t.k }

// Levels returns n.
func (t *FatTree) Levels() int { return t.n }

// Ports implements Topology: top-level routers have only down ports.
func (t *FatTree) Ports(router int) int {
	if t.level(router) == t.n-1 {
		return t.k
	}
	return 2 * t.k
}

func (t *FatTree) level(router int) int { return router / t.perLvl }
func (t *FatTree) word(router int) int  { return router % t.perLvl }

func (t *FatTree) routerID(level, word int) int { return level*t.perLvl + word }

// digit returns base-k digit i of x, for i in 0..n-1.
func (t *FatTree) digit(x, i int) int { return x / t.pow[i] % t.k }

// setDigit returns x with base-k digit i replaced by v.
func (t *FatTree) setDigit(x, i, v int) int {
	return x + (v-t.digit(x, i))*t.pow[i]
}

// Neighbor implements Topology.
func (t *FatTree) Neighbor(router, port int) (peerRouter, peerPort, node int) {
	l, w := t.level(router), t.word(router)
	if port < t.k {
		// Down port v.
		if l == 0 {
			return Terminal, 0, w*t.k + port
		}
		// Child at level l-1 with word position l-1 set to v; the child
		// reaches us back through its up port selecting our digit l-1.
		child := t.routerID(l-1, t.setDigit(w, l-1, port))
		return child, t.k + t.digit(w, l-1), Terminal
	}
	// Up port j: parent at level l+1 with word position l set to j; the
	// parent reaches us back through its down port selecting our digit l.
	j := port - t.k
	parent := t.routerID(l+1, t.setDigit(w, l, j))
	return parent, t.digit(w, l), Terminal
}

// NodePort implements Topology: node a attaches to leaf router a/k through
// that router's down port a mod k.
func (t *FatTree) NodePort(nodeID int) (router, port int) {
	return t.routerID(0, nodeID/t.k), nodeID % t.k
}

// ancestor reports whether router (l, w) lies above node dst: its word
// digits at positions l..n-2 must match the destination leaf word. Both
// words have n-1 digits, so those digits match exactly when the words
// agree after dropping their low l digits.
func (t *FatTree) ancestor(l, w, dst int) bool {
	return w/t.pow[l] == dst/t.k/t.pow[l]
}

// Route implements Topology. If the router is an ancestor of dst the packet
// descends on the unique correct down port; otherwise it may climb through
// any up port. Up-port candidates are rotated by the destination's digit at
// the current level so the first candidate is deterministic per destination
// (giving an in-order single path when routed deterministically) while the
// full candidate set exposes the multipath structure to adaptive routing.
func (t *FatTree) Route(router, inPort, dst int) []int {
	return t.RouteAppend(router, inPort, dst, nil)
}

// RouteAppend implements Topology without allocating: candidates are
// appended to buf.
func (t *FatTree) RouteAppend(router, inPort, dst int, buf []int) []int {
	if dst < 0 || dst >= t.nodes {
		return buf
	}
	l, w := t.level(router), t.word(router)
	if t.ancestor(l, w, dst) {
		if l == 0 {
			return append(buf, dst%t.k)
		}
		return append(buf, t.digit(dst/t.k, l-1))
	}
	start := t.digit(dst, l)
	for i := 0; i < t.k; i++ {
		buf = append(buf, t.k+(start+i)%t.k)
	}
	return buf
}

var _ Topology = (*FatTree)(nil)
