// Package topology defines the interconnection-network shapes used by the
// flit-level simulator: a k-ary n-tree (the fat-tree family of the CM-5 data
// network, whose redundant up-links give rise to multipath routing and hence
// arbitrary delivery order) and a 2-D mesh (the canonical substrate for
// Compressionless Routing).
package topology

// Terminal marks a port that connects to a processing node rather than to
// another router.
const Terminal = -1

// Topology describes routers, ports, links, and candidate routes.
//
// Routers are numbered 0..NumRouters()-1 and processing nodes
// 0..Nodes()-1. Every port of every router is connected: either to a peer
// router port or to exactly one node.
type Topology interface {
	// Name identifies the topology in reports, e.g. "fattree(4,2)".
	Name() string
	// Nodes returns the number of processing nodes.
	Nodes() int
	// NumRouters returns the number of routers.
	NumRouters() int
	// Ports returns the number of ports on a router.
	Ports(router int) int
	// Neighbor resolves the far end of (router, port). If the port
	// connects to another router it returns (peerRouter, peerPort,
	// Terminal); if it connects to a node it returns (Terminal, 0, node).
	Neighbor(router, port int) (peerRouter, peerPort, node int)
	// NodePort returns the router and port a node's traffic enters at.
	NodePort(node int) (router, port int)
	// Route returns candidate output ports at router for a packet headed
	// to node dst, in preference order. Deterministic routing always
	// takes the first candidate; adaptive routing may take any. Route
	// never returns the port the node would exit to unless dst is
	// attached there, and never returns an empty slice for a reachable
	// destination.
	Route(router, inPort, dst int) []int
	// RouteAppend is Route writing into a caller-provided buffer instead
	// of allocating: candidates are appended to buf and the extended
	// slice returned. It must be a pure function of (router, inPort,
	// dst), and its candidates must be distinct ports, so at most
	// Ports(router) of them: the flit engine caches each input lane's
	// last answer in a buffer of that capacity and routes again only
	// when the destination changes.
	RouteAppend(router, inPort, dst int, buf []int) []int
}

// DeterministicPath walks the first-candidate route from src to dst and
// returns the sequence of routers traversed, ending at the router that
// delivers to dst. It is the reference path used by tests and by in-order
// routing modes.
func DeterministicPath(t Topology, src, dst int) []int {
	router, _ := t.NodePort(src)
	path := []int{router}
	var candidates []int
	// A path can never exceed the router count on a loop-free route; the
	// bound guards against routing-function bugs in tests.
	for hops := 0; hops <= t.NumRouters()+1; hops++ {
		candidates = t.RouteAppend(router, -1, dst, candidates[:0])
		if len(candidates) == 0 {
			return nil
		}
		port := candidates[0]
		peer, _, node := t.Neighbor(router, port)
		if node != Terminal {
			if node == dst {
				return path
			}
			return nil
		}
		router = peer
		path = append(path, router)
	}
	return nil
}
