package network

import (
	"math"
	"math/rand"
	"testing"
)

// drawsPerMethod is how many values each generator method must reproduce.
const drawsPerMethod = 3000

// matchDraws draws from a fresh seededSource generator and from
// math/rand's, interleaving every rand.Rand method the repository calls,
// and reports the first draw where they differ.
func matchDraws(t *testing.T, seed int64, draws int) {
	t.Helper()
	got, want := newSeededRand(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < draws; i++ {
		switch i % 5 {
		case 0:
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, g, w)
			}
		case 1:
			n := 1 + i%1000
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d draw %d: Intn(%d) %d, math/rand %d", seed, i, n, g, w)
			}
		case 2:
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, g, w)
			}
		case 3:
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, i, g, w)
			}
		case 4:
			n := 2 + i%7 // the window sizes a reorderer shuffles
			g, w := make([]int, n), make([]int, n)
			for k := range g {
				g[k], w[k] = k, k
			}
			got.Shuffle(n, func(a, b int) { g[a], g[b] = g[b], g[a] })
			want.Shuffle(n, func(a, b int) { w[a], w[b] = w[b], w[a] })
			for k := range g {
				if g[k] != w[k] {
					t.Fatalf("seed %d draw %d: Shuffle(%d) %v, math/rand %v", seed, i, n, g, w)
				}
			}
		}
	}
}

// The source draws exactly what math/rand draws: at the seeds where
// math/rand's normalization changes branch (0, the modulus 2³¹−1 and its
// neighbours, the int64 extremes) and at a few hundred spread seeds,
// through every rand.Rand method the repository calls.
func TestSeededSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, seedZero, seedMod - 1, seedMod, seedMod + 1, -seedMod,
		math.MinInt64, math.MaxInt64,
	}
	spread := rand.New(rand.NewSource(20261019))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, spread.Int63()-spread.Int63())
	}
	for _, seed := range seeds {
		matchDraws(t, seed, 5*drawsPerMethod)
	}
}

// The fault and reorder generators are built on the source, so their
// streams are math/rand's too.
func TestSeededGeneratorsMatchMathRand(t *testing.T) {
	const seed = 42
	plan := NewSeededRate(0.5, seed)
	oracle := rand.New(rand.NewSource(seed))
	for i := 0; i < drawsPerMethod; i++ {
		want := Deliver
		switch r := oracle.Float64(); {
		case r < 0.25:
			want = Corrupt
		case r < 0.5:
			want = Drop
		}
		if got := plan.Judge(Packet{}); got != want {
			t.Fatalf("judgement %d: %v, math/rand gives %v", i, got, want)
		}
	}
}

func FuzzSeededSource(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, seedMod, -seedMod, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		matchDraws(t, seed, 200)
	})
}

// BenchmarkSeededRand measures building a seeded generator, the cost a
// faulty transfer pays twice; BenchmarkMathRandNewSource is math/rand's.
func BenchmarkSeededRand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		randSink = newSeededRand(int64(i))
	}
}

func BenchmarkMathRandNewSource(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		randSink = rand.New(rand.NewSource(int64(i)))
	}
}

// randSink keeps the benchmarks' generators on the heap, where the
// library's live.
var randSink *rand.Rand
