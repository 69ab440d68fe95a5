package network

import "math/rand"

// Outcome is a fault plan's verdict for one packet.
type Outcome uint8

const (
	// Deliver passes the packet through unharmed.
	Deliver Outcome = iota
	// Corrupt delivers the packet with a failed CRC; the receiving NI
	// detects the error and discards it (the CM-5 detects but cannot
	// correct).
	Corrupt
	// Drop loses the packet entirely.
	Drop
)

// FaultPlan decides the fate of each injected packet. Implementations must
// be deterministic for a given construction so experiments are repeatable.
type FaultPlan interface {
	Judge(p Packet) Outcome
}

// NoFaults delivers everything.
type NoFaults struct{}

// Judge implements FaultPlan.
func (NoFaults) Judge(Packet) Outcome { return Deliver }

// EveryNth corrupts or drops every nth judged packet (1-based: the nth,
// 2nth, ... packets suffer the outcome). An n of zero or less disables it.
type EveryNth struct {
	N    int
	What Outcome
	seen int
}

// Judge implements FaultPlan.
func (e *EveryNth) Judge(Packet) Outcome {
	if e.N <= 0 {
		return Deliver
	}
	e.seen++
	if e.seen%e.N == 0 {
		return e.What
	}
	return Deliver
}

// SeededRate corrupts/drops packets at a fixed probability using a seeded
// generator, splitting faults evenly between corruption and loss. Its
// stream is math/rand's for the same seed.
type SeededRate struct {
	rate float64
	rng  *rand.Rand
	src  seededSource
}

// NewSeededRate returns a plan faulting packets with the given probability.
func NewSeededRate(rate float64, seed int64) *SeededRate {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	s := &SeededRate{rate: rate}
	s.src.Seed(seed)
	s.rng = rand.New(&s.src)
	return s
}

// Judge implements FaultPlan.
func (s *SeededRate) Judge(Packet) Outcome {
	r := s.rng.Float64()
	switch {
	case r < s.rate/2:
		return Corrupt
	case r < s.rate:
		return Drop
	default:
		return Deliver
	}
}

// TargetSeqs faults specific per-flow sequence numbers of one flow,
// letting tests lose exactly the packets they mean to lose.
type TargetSeqs struct {
	Src, Dst int
	Seqs     map[uint64]Outcome
}

// Judge implements FaultPlan.
func (t *TargetSeqs) Judge(p Packet) Outcome {
	if p.Src != t.Src || p.Dst != t.Dst {
		return Deliver
	}
	if o, ok := t.Seqs[p.flow]; ok {
		delete(t.Seqs, p.flow) // a retransmission of the same data succeeds
		return o
	}
	return Deliver
}
