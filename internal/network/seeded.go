package network

import "math/rand"

// seededSource is math/rand's generator — the additive lagged Fibonacci
// source behind rand.NewSource — reproduced bit for bit so that seeding
// it is cheap. rand.NewSource fills the generator's 607-word state from a
// Lehmer chain x ← 48271·x mod (2³¹−1), one Schrage division per step,
// 1 841 steps in a row. Here the same chain runs as eight interleaved
// chains with stride 48271⁸, reduced by shifts and adds modulo the
// Mersenne prime, so the steps no longer wait on one another. The outputs
// are math/rand's: the fault and reorder streams must not move, and
// TestSeededSourceMatchesMathRand holds this source to math/rand itself.
type seededSource struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen  = 607 // words of generator state
	rngTap  = 273 // the generator's second lag
	rngMask = 1<<63 - 1
	// The seeding chain's modulus 2³¹−1 and multiplier.
	seedMod  = 1<<31 - 1
	seedMul  = 48271
	seedZero = 89482311 // what math/rand seeds with in place of 0
	// seedSkip is the chain steps math/rand discards before the first
	// state word; each state word then takes three steps.
	seedSkip  = 20
	seedLanes = 8
)

var (
	// seedStart[j] is 48271^(seedSkip+1+j) and seedStride 48271^seedLanes,
	// both mod 2³¹−1: lane j starts at chain step seedSkip+1+j and moves
	// seedLanes steps at a time.
	seedStart  [seedLanes]uint64
	seedStride uint64
	// rngCooked is the table math/rand mixes into every seeded state,
	// recovered from math/rand's own output (see recoverCooked).
	rngCooked [rngLen]int64
)

func init() {
	pow := uint64(1)
	for i := 1; i <= seedSkip+seedLanes; i++ {
		pow = mulMod(pow, seedMul)
		if i == seedLanes {
			seedStride = pow
		}
		if i > seedSkip {
			seedStart[i-seedSkip-1] = pow
		}
	}
	rngCooked = recoverCooked()
}

// mulMod returns a·b mod 2³¹−1 for a, b below the modulus, folding the
// product's high bits onto its low bits instead of dividing.
func mulMod(a, b uint64) uint64 {
	x := a * b // < 2⁶²
	x = x&seedMod + x>>31
	x = x&seedMod + x>>31
	if x >= seedMod {
		x -= seedMod
	}
	return x
}

// Seed puts the source in the state rand.NewSource(seed) starts in.
func (s *seededSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.fill(seed, &rngCooked)
}

// fill writes the seeded state words: each is three consecutive chain
// values shifted into place, XORed with the cooked table.
func (s *seededSource) fill(seed int64, cooked *[rngLen]int64) {
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = seedZero
	}
	x0 := uint64(seed)
	l0, l1, l2, l3 := mulMod(seedStart[0], x0), mulMod(seedStart[1], x0), mulMod(seedStart[2], x0), mulMod(seedStart[3], x0)
	l4, l5, l6, l7 := mulMod(seedStart[4], x0), mulMod(seedStart[5], x0), mulMod(seedStart[6], x0), mulMod(seedStart[7], x0)
	m := seedStride
	// A block of three lane rounds is 24 consecutive chain values: eight
	// state words. The lanes are separate variables so they stay in
	// registers.
	var x [3 * seedLanes]uint64
	for i := 0; i < rngLen; i += seedLanes {
		for r := 0; r < len(x); r += seedLanes {
			x := (*[seedLanes]uint64)(x[r:])
			x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7] = l0, l1, l2, l3, l4, l5, l6, l7
			l0, l1, l2, l3 = mulMod(l0, m), mulMod(l1, m), mulMod(l2, m), mulMod(l3, m)
			l4, l5, l6, l7 = mulMod(l4, m), mulMod(l5, m), mulMod(l6, m), mulMod(l7, m)
		}
		for e := 0; e < seedLanes && i+e < rngLen; e++ {
			u := int64(x[3*e])<<40 ^ int64(x[3*e+1])<<20 ^ int64(x[3*e+2])
			s.vec[i+e] = u ^ cooked[i+e]
		}
	}
}

// Uint64 returns the next 64-bit value, as math/rand's source does.
func (s *seededSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value with its top bit cleared.
func (s *seededSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// newSeededRand returns a generator drawing exactly what
// rand.New(rand.NewSource(seed)) draws.
func newSeededRand(seed int64) *rand.Rand {
	s := new(seededSource)
	s.Seed(seed)
	return rand.New(s)
}

// recoverCooked derives the cooked table from math/rand. Its first
// rngLen outputs determine its whole seeded state: output k overwrites
// state word (rngLen−rngTap−1−k) mod rngLen with that word plus word
// rngLen−1−k, which itself was overwritten by output k−rngTap when
// k ≥ rngTap. Undoing the sums yields the seeded state; XORing out the
// chain values leaves the table.
func recoverCooked() [rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out, state [rngLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	feed := func(k int) int { return (2*rngLen - rngTap - 1 - k) % rngLen }
	for k := rngTap; k < rngLen; k++ {
		state[feed(k)] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		state[feed(k)] = out[k] - state[rngLen-1-k]
	}
	var chain seededSource
	chain.fill(seed, new([rngLen]int64))
	for i := range state {
		state[i] ^= chain.vec[i]
	}
	return state
}
