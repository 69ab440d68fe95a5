package parsweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRunCoversAllIndicesInOrderSlots(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got := make([]int, 100)
		err := Run(workers, len(got), func(i int) error {
			got[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunSerialMatchesParallel(t *testing.T) {
	build := func(workers int) []string {
		out := make([]string, 37)
		if err := Run(workers, len(out), func(i int) error {
			out[i] = fmt.Sprintf("point-%03d", i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, parallel := build(1), build(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("slot %d diverged: %q vs %q", i, serial[i], parallel[i])
		}
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for trial := 0; trial < 20; trial++ {
		err := Run(4, 50, func(i int) error {
			switch i {
			case 7:
				return errLow
			case 31:
				return errHigh
			default:
				return nil
			}
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("trial %d: got %v, want error from lowest failing index", trial, err)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	err := Run(workers, 64, func(i int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		defer inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, want <= %d", p, workers)
	}
}

func TestRunCtxCancelledReportsPrefix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := make([]bool, 100)
	prefix, err := RunCtx(ctx, 4, len(ran), func(i int) error {
		ran[i] = true
		if i == 20 {
			cancel()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if prefix < 1 || prefix > len(ran) {
		t.Fatalf("prefix %d out of range", prefix)
	}
	for i := 0; i < prefix; i++ {
		if !ran[i] {
			t.Fatalf("index %d inside prefix %d never ran", i, prefix)
		}
	}
	if prefix == len(ran) {
		t.Fatal("cancellation at index 20 still ran the whole sweep")
	}
}

func TestRunCtxSerialCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	prefix, err := RunCtx(ctx, 1, 10, func(i int) error {
		ran++
		if i == 3 {
			cancel()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if prefix != 4 || ran != 4 {
		t.Fatalf("prefix=%d ran=%d, want 4 and 4", prefix, ran)
	}
}

func TestMapOrdersResults(t *testing.T) {
	out, err := Map(6, 25, func(i int) (int, error) { return i * 3, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*3 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*3)
		}
	}
	if _, err := Map(6, 25, func(i int) (int, error) {
		if i == 11 {
			return 0, errors.New("boom")
		}
		return 0, nil
	}); err == nil {
		t.Fatal("Map swallowed the error")
	}
}

func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers must be at least 1")
	}
	if Workers(5) != 5 {
		t.Fatalf("Workers(5) = %d", Workers(5))
	}
}

func TestRunZeroJobs(t *testing.T) {
	if err := Run(4, 0, func(int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestShardsBudget pins the composition policy: auto resolves to the serial
// engine, effective workers x shards never exceeds GOMAXPROCS, grid fan-out
// (workers) takes precedence over intra-run sharding, and overbudget
// requests clamp to the budget.
func TestShardsBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	cases := []struct {
		requested, workers, want int
	}{
		{0, 1, 1},   // auto with a serial sweep: still the serial engine
		{0, 8, 1},   // auto with a saturated sweep: serial engine per point
		{0, 2, 1},   // auto never shards, whatever the budget
		{-1, 2, 1},  // negatives are auto too
		{3, 2, 3},   // explicit within budget is honored
		{16, 2, 4},  // explicit beyond budget clamps to it
		{1, 1, 1},   // explicit serial stays serial
		{4, 0, 4},   // workers below 1 normalize to 1
		{0, 100, 1}, // more workers than cores still leaves one shard
	}
	for _, c := range cases {
		if got := Shards(c.requested, c.workers); got != c.want {
			t.Errorf("Shards(%d, %d) = %d, want %d", c.requested, c.workers, got, c.want)
		}
	}
	for workers := 1; workers <= 10; workers++ {
		for req := 0; req <= 12; req++ {
			if got := Shards(req, workers); got*workers > 8 && got != 1 {
				t.Errorf("Shards(%d, %d) = %d: workers*shards = %d exceeds GOMAXPROCS=8",
					req, workers, got, got*workers)
			}
		}
	}
}
