// Package workload provides the classic synthetic traffic patterns of
// interconnection-network evaluation — uniform random, hotspot, transpose,
// bit complement, and nearest neighbor — behind a seeded, deterministic
// generator. The netload tool and the network experiments share these
// patterns, mirroring how the routing literature the paper engages with
// ([8], [18], [23]) evaluates networks.
package workload

import (
	"fmt"
	"strings"
)

// Pattern maps a source node to a destination for one generated packet.
// Implementations must be deterministic given the generator's state.
type Pattern interface {
	// Name identifies the pattern ("uniform", "hotspot", ...).
	Name() string
	// Dest picks the destination for a packet from src in an n-node
	// machine, drawing randomness from rng as needed. ok is false when
	// the pattern generates no traffic for this source (for example the
	// hotspot node itself, or a fixed pattern mapping a node to itself).
	Dest(src, n int, rng func() uint64) (dst int, ok bool)
}

// Uniform sends each packet to a destination chosen uniformly at random
// among the other nodes.
type Uniform struct{}

// Name implements Pattern.
func (Uniform) Name() string { return "uniform" }

// Dest implements Pattern.
func (Uniform) Dest(src, n int, rng func() uint64) (int, bool) {
	if n < 2 {
		return 0, false
	}
	dst := int(rng()) % (n - 1)
	if dst >= src {
		dst++
	}
	return dst, true
}

// Hotspot sends a fraction of traffic to one hot node and the rest
// uniformly — the contention pattern behind the reorder demonstrations.
type Hotspot struct {
	// Node is the hot destination.
	Node int
	// Permille is the share of packets aimed at the hot node, in 1/1000.
	Permille int
}

// Name implements Pattern.
func (h Hotspot) Name() string { return fmt.Sprintf("hotspot(%d,%d‰)", h.Node, h.Permille) }

// Dest implements Pattern.
func (h Hotspot) Dest(src, n int, rng func() uint64) (int, bool) {
	if n < 2 {
		return 0, false
	}
	hot := h.Node % n
	if int(rng()%1000) < h.Permille && src != hot {
		return hot, true
	}
	return Uniform{}.Dest(src, n, rng)
}

// Transpose sends node (x, y) to node (y, x) on the square grid implied by
// the node count (matrix-transpose communication). Nodes on the diagonal
// generate no traffic.
type Transpose struct{}

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// Dest implements Pattern.
func (Transpose) Dest(src, n int, _ func() uint64) (int, bool) {
	side := 1
	for side*side < n {
		side++
	}
	if side*side != n {
		return 0, false // not a square machine
	}
	x, y := src%side, src/side
	dst := x*side + y
	return dst, dst != src
}

// BitComplement sends each node to its bitwise complement within the
// machine size (which must be a power of two) — the canonical worst case
// for dimension-order routing.
type BitComplement struct{}

// Name implements Pattern.
func (BitComplement) Name() string { return "bitcomplement" }

// Dest implements Pattern.
func (BitComplement) Dest(src, n int, _ func() uint64) (int, bool) {
	if n&(n-1) != 0 || n < 2 {
		return 0, false
	}
	return (n - 1) ^ src, true
}

// NearestNeighbor sends each node to its successor modulo the machine size
// — the benign pattern that loads every link equally.
type NearestNeighbor struct{}

// Name implements Pattern.
func (NearestNeighbor) Name() string { return "neighbor" }

// Dest implements Pattern.
func (NearestNeighbor) Dest(src, n int, _ func() uint64) (int, bool) {
	if n < 2 {
		return 0, false
	}
	return (src + 1) % n, true
}

// ByName resolves a pattern from its command-line name. Hotspot accepts
// "hotspot" (node 0, 500 permille) or "hotspot:<node>:<permille>".
func ByName(name string) (Pattern, error) {
	switch {
	case name == "uniform":
		return Uniform{}, nil
	case name == "transpose":
		return Transpose{}, nil
	case name == "bitcomplement":
		return BitComplement{}, nil
	case name == "neighbor":
		return NearestNeighbor{}, nil
	case name == "hotspot":
		return Hotspot{Node: 0, Permille: 500}, nil
	case strings.HasPrefix(name, "hotspot:"):
		var node, permille int
		if _, err := fmt.Sscanf(name, "hotspot:%d:%d", &node, &permille); err != nil {
			return nil, fmt.Errorf("workload: bad hotspot spec %q (want hotspot:<node>:<permille>)", name)
		}
		if permille < 0 || permille > 1000 {
			return nil, fmt.Errorf("workload: hotspot permille %d out of range", permille)
		}
		return Hotspot{Node: node, Permille: permille}, nil
	default:
		return nil, fmt.Errorf("workload: unknown pattern %q", name)
	}
}

// Generator produces a deterministic packet arrival process: each node
// offers load packets-per-cycle (Bernoulli per cycle) with destinations
// drawn from the pattern.
type Generator struct {
	pattern Pattern
	nodes   int
	gate    uint64 // injection threshold out of 2^31
	rng     uint64
	// draw is g.next bound once: a method value passed to Pattern.Dest
	// escapes, so binding it per call would allocate on every arrival.
	draw func() uint64
	out  []Arrival // Cycle's reused result buffer
}

// NewGenerator builds a generator; load is packets per node per cycle in
// (0, 1].
func NewGenerator(p Pattern, nodes int, load float64, seed int64) (*Generator, error) {
	if p == nil {
		return nil, fmt.Errorf("workload: nil pattern")
	}
	if nodes < 1 {
		return nil, fmt.Errorf("workload: %d nodes", nodes)
	}
	if load <= 0 || load > 1 {
		return nil, fmt.Errorf("workload: load %g out of (0, 1]", load)
	}
	g := &Generator{
		pattern: p,
		nodes:   nodes,
		gate:    uint64(load * float64(uint64(1)<<31)),
		rng:     uint64(seed)*2654435761 + 1,
	}
	g.draw = g.next
	return g, nil
}

func (g *Generator) next() uint64 {
	g.rng = g.rng*6364136223846793005 + 1442695040888963407
	return g.rng >> 33
}

// Arrival is one generated packet.
type Arrival struct {
	Src, Dst int
}

// Cycle returns the packets arriving in one cycle (at most one per node).
// The result is valid until the next call: Cycle reuses its storage, so
// steady-state generation allocates nothing. Copy it to keep it.
func (g *Generator) Cycle() []Arrival {
	out := g.out[:0]
	for src := 0; src < g.nodes; src++ {
		if g.next()&0x7fffffff >= g.gate {
			continue
		}
		dst, ok := g.pattern.Dest(src, g.nodes, g.draw)
		if !ok || dst == src {
			continue
		}
		out = append(out, Arrival{Src: src, Dst: dst})
	}
	g.out = out
	return out
}
