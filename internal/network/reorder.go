package network

import "math/rand"

// Reorderer decides the delivery order of packets within one
// (source, destination) flow, modeling the arbitrary delivery order of
// multipath networks. Implementations are driven per flow: Push accepts the
// next injected packet and appends any packets that become deliverable (in
// delivery order) to out; Flush appends anything still held when the flow
// goes idle. Both return the extended slice.
type Reorderer interface {
	Push(out []Packet, p Packet) []Packet
	Flush(out []Packet) []Packet
}

// ReorderPolicy constructs a fresh Reorderer for each flow.
type ReorderPolicy func() Reorderer

// InOrder delivers every flow in injection order (a single-path network).
func InOrder() ReorderPolicy {
	return func() Reorderer { return inOrder{} }
}

type inOrder struct{}

func (inOrder) Push(out []Packet, p Packet) []Packet { return append(out, p) }
func (inOrder) Flush(out []Packet) []Packet          { return out }

// PairSwap delivers each consecutive pair of packets swapped
// (1, 0, 3, 2, ...), so exactly half of a flow's packets arrive out of
// order — the paper's Table 2 assumption for the indefinite-sequence
// protocol, made deterministic.
func PairSwap() ReorderPolicy {
	return func() Reorderer { return &pairSwap{} }
}

type pairSwap struct {
	held    Packet
	hasHeld bool
}

func (s *pairSwap) Push(out []Packet, p Packet) []Packet {
	if !s.hasHeld {
		s.held, s.hasHeld = p, true
		return out
	}
	out = append(out, p, s.held)
	s.held, s.hasHeld = Packet{}, false
	return out
}

func (s *pairSwap) Flush(out []Packet) []Packet {
	if !s.hasHeld {
		return out
	}
	out = append(out, s.held)
	s.held, s.hasHeld = Packet{}, false
	return out
}

// WindowShuffle holds up to window packets per flow and releases them in a
// seeded pseudo-random order, modeling adaptive routing whose path spread is
// bounded by the network diameter. The same seed always produces the same
// delivery order: the order a math/rand generator seeded with it shuffles.
func WindowShuffle(window int, seed int64) ReorderPolicy {
	if window < 1 {
		window = 1
	}
	return func() Reorderer {
		return &windowShuffle{window: window, seed: seed, held: make([]Packet, 0, window)}
	}
}

type windowShuffle struct {
	window int
	seed   int64
	rng    *rand.Rand // seeded on the first release of two or more packets
	held   []Packet
}

func (s *windowShuffle) Push(out []Packet, p Packet) []Packet {
	s.held = append(s.held, p)
	if len(s.held) < s.window {
		return out
	}
	return s.release(out)
}

func (s *windowShuffle) Flush(out []Packet) []Packet { return s.release(out) }

// release shuffles the held packets onto out. Shuffle draws nothing for
// fewer than two packets, so the generator is only needed from the first
// release of two or more; seeding it then yields the same order as seeding
// it up front.
func (s *windowShuffle) release(out []Packet) []Packet {
	if len(s.held) > 1 {
		if s.rng == nil {
			s.rng = newSeededRand(s.seed)
		}
		held := s.held
		s.rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	}
	out = append(out, s.held...)
	clear(s.held)
	s.held = s.held[:0]
	return out
}
