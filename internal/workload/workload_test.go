package workload

import (
	"testing"
	"testing/quick"
)

func rngFrom(seed uint64) func() uint64 {
	s := seed
	return func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 33
	}
}

func TestUniformNeverSelf(t *testing.T) {
	rng := rngFrom(1)
	for i := 0; i < 2000; i++ {
		src := i % 16
		dst, ok := (Uniform{}).Dest(src, 16, rng)
		if !ok {
			t.Fatal("uniform produced no destination")
		}
		if dst == src || dst < 0 || dst >= 16 {
			t.Fatalf("dst = %d for src %d", dst, src)
		}
	}
	if _, ok := (Uniform{}).Dest(0, 1, rng); ok {
		t.Error("uniform on a 1-node machine produced traffic")
	}
}

func TestUniformCoversAllDestinations(t *testing.T) {
	rng := rngFrom(7)
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		dst, _ := (Uniform{}).Dest(3, 8, rng)
		seen[dst] = true
	}
	if len(seen) != 7 {
		t.Errorf("uniform reached %d of 7 destinations", len(seen))
	}
}

func TestHotspotBias(t *testing.T) {
	h := Hotspot{Node: 5, Permille: 800}
	rng := rngFrom(3)
	hot := 0
	const trials = 3000
	for i := 0; i < trials; i++ {
		dst, ok := h.Dest(1, 16, rng)
		if !ok {
			t.Fatal("no destination")
		}
		if dst == 5 {
			hot++
		}
	}
	// ~80% biased plus uniform spillover; allow slack.
	if hot < trials*7/10 {
		t.Errorf("hotspot received %d of %d", hot, trials)
	}
	// The hot node itself falls back to uniform.
	dst, ok := h.Dest(5, 16, rng)
	if !ok || dst == 5 {
		t.Errorf("hot node sent to %d, %v", dst, ok)
	}
}

func TestTranspose(t *testing.T) {
	// 16 nodes = 4x4 grid: node 1 = (1,0) -> (0,1) = node 4.
	dst, ok := (Transpose{}).Dest(1, 16, nil)
	if !ok || dst != 4 {
		t.Errorf("transpose(1) = %d, %v", dst, ok)
	}
	// Diagonal generates nothing.
	if _, ok := (Transpose{}).Dest(5, 16, nil); ok {
		t.Error("diagonal node produced traffic")
	}
	// Non-square machines generate nothing.
	if _, ok := (Transpose{}).Dest(0, 12, nil); ok {
		t.Error("non-square transpose produced traffic")
	}
}

func TestBitComplement(t *testing.T) {
	dst, ok := (BitComplement{}).Dest(0b0011, 16, nil)
	if !ok || dst != 0b1100 {
		t.Errorf("complement = %b", dst)
	}
	if _, ok := (BitComplement{}).Dest(0, 12, nil); ok {
		t.Error("non-power-of-two complement produced traffic")
	}
}

func TestNearestNeighbor(t *testing.T) {
	if dst, ok := (NearestNeighbor{}).Dest(7, 8, nil); !ok || dst != 0 {
		t.Errorf("neighbor(7) = %d", dst)
	}
	if _, ok := (NearestNeighbor{}).Dest(0, 1, nil); ok {
		t.Error("1-node neighbor produced traffic")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"uniform", "transpose", "bitcomplement", "neighbor", "hotspot"} {
		p, err := ByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p == nil {
			t.Errorf("%s: nil pattern", name)
		}
	}
	p, err := ByName("hotspot:3:250")
	if err != nil {
		t.Fatal(err)
	}
	h, ok := p.(Hotspot)
	if !ok || h.Node != 3 || h.Permille != 250 {
		t.Errorf("parsed hotspot = %+v", p)
	}
	for _, bad := range []string{"", "ring", "hotspot:x", "hotspot:1:2000"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) accepted", bad)
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(nil, 4, 0.1, 1); err == nil {
		t.Error("nil pattern accepted")
	}
	if _, err := NewGenerator(Uniform{}, 0, 0.1, 1); err == nil {
		t.Error("zero nodes accepted")
	}
	for _, load := range []float64{0, -0.5, 1.5} {
		if _, err := NewGenerator(Uniform{}, 4, load, 1); err == nil {
			t.Errorf("load %g accepted", load)
		}
	}
}

func TestGeneratorRateAndDeterminism(t *testing.T) {
	// Cycle reuses its result buffer, so each cycle's arrivals are copied
	// out (with their cycle number) before the next call overwrites them.
	type stamped struct {
		cycle int
		a     Arrival
	}
	run := func() []stamped {
		g, err := NewGenerator(Uniform{}, 16, 0.25, 99)
		if err != nil {
			t.Fatal(err)
		}
		var all []stamped
		for c := 0; c < 2000; c++ {
			for _, a := range g.Cycle() {
				all = append(all, stamped{c, a})
			}
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("generator not deterministic: %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generator not deterministic: arrival %d is %+v, then %+v", i, a[i], b[i])
		}
	}
	// Expected arrivals: 16 nodes * 2000 cycles * 0.25 = 8000 +- noise.
	if len(a) < 7200 || len(a) > 8800 {
		t.Errorf("arrivals = %d, want about 8000", len(a))
	}
}

// TestGeneratorCycleAllocsNothing holds steady-state generation to zero
// allocations for every pattern: the arrival buffer is reused and the
// random source handed to Pattern.Dest is bound once.
func TestGeneratorCycleAllocsNothing(t *testing.T) {
	for _, p := range []Pattern{Uniform{}, Hotspot{Node: 3, Permille: 400}, Transpose{}, BitComplement{}, NearestNeighbor{}} {
		g, err := NewGenerator(p, 64, 1, 5)
		if err != nil {
			t.Fatal(err)
		}
		g.Cycle() // sizes the buffer: at load 1 every node may arrive
		if got := testing.AllocsPerRun(200, func() { g.Cycle() }); got != 0 {
			t.Errorf("%s: Cycle makes %v allocs, want 0", p.Name(), got)
		}
	}
}

// BenchmarkGeneratorCycle measures one cycle of uniform arrivals on a
// 64-node machine at a loaded rate.
func BenchmarkGeneratorCycle(b *testing.B) {
	g, err := NewGenerator(Uniform{}, 64, 0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Cycle()
	}
}

// Property: every generated arrival is a valid, non-self pair, for any
// pattern and machine size.
func TestGeneratorProperty(t *testing.T) {
	patterns := []Pattern{Uniform{}, Hotspot{Node: 1, Permille: 300}, NearestNeighbor{}}
	prop := func(nodesRaw uint8, seed int16, pRaw uint8) bool {
		nodes := int(nodesRaw%30) + 2
		g, err := NewGenerator(patterns[int(pRaw)%len(patterns)], nodes, 0.5, int64(seed))
		if err != nil {
			return false
		}
		for c := 0; c < 50; c++ {
			for _, a := range g.Cycle() {
				if a.Src < 0 || a.Src >= nodes || a.Dst < 0 || a.Dst >= nodes || a.Src == a.Dst {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
