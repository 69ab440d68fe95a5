// Package parsweep is a bounded worker pool for fanning independent
// deterministic runs — netload load points, packet-size sweeps, perfreg
// repetitions, canonical experiment scenarios — across GOMAXPROCS
// goroutines.
//
// The contract that keeps parallel sweeps byte-identical to serial ones:
// every job is a pure function of its index, each job writes only into its
// own caller-owned slot, and results are consumed in input order after the
// pool drains. The pool adds no ordering of its own; it only overlaps
// wall-clock time. Workers(1) degenerates to today's serial loop, same
// iteration order and all.
package parsweep

import (
	"context"
	"runtime"
	"sync"
)

// Workers normalizes a -parallel flag value: values below 1 select
// GOMAXPROCS (the number of simultaneously executing goroutines the
// runtime allows, NumCPU by default), anything else is returned as given.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Shards resolves a -shards flag value against the sweep's worker count.
// Requested values below 1 (auto) select 1, the serial engine: the sharded
// engine has measured slower than serial on every host the repository has
// timed, so auto never picks it. An explicit request is held to the budget
// the grid fan-out leaves, max(1, GOMAXPROCS/workers): the two forms of
// parallelism multiply (each of the workers' simulations runs its own
// shard goroutines), and the fan-out — which parallelizes whole
// independent runs with no barrier — takes precedence. Shard counts never
// change results — the sharded engine is byte-identical at any count — so
// the clamp only caps goroutines, never semantics. Callers pass the
// normalized Workers value.
func Shards(requested, workers int) int {
	if requested < 1 {
		return 1
	}
	if workers < 1 {
		workers = 1
	}
	budget := runtime.GOMAXPROCS(0) / workers
	if budget < 1 {
		budget = 1
	}
	if requested > budget {
		return budget
	}
	return requested
}

// Run executes fn(i) for every i in [0, n) across at most workers
// goroutines. fn must confine its writes to index-i state; Run imposes no
// ordering between jobs. With workers <= 1 the jobs run serially on the
// calling goroutine in index order, exactly like the loop this replaces.
//
// A failure stops new indices from being dispatched (in-flight jobs
// finish). Because dispatch is in index order, the lowest failing index is
// always reached, and its error is the one returned — so the error a
// caller sees does not depend on goroutine scheduling.
func Run(workers, n int, fn func(i int) error) error {
	_, err := run(context.Background(), workers, n, fn)
	return err
}

// RunCtx is Run with cooperative cancellation: once ctx is cancelled, no
// new indices are dispatched (in-flight jobs finish). It returns the
// completed prefix — the largest d such that every index in [0, d) ran and
// succeeded — which is what an interrupted sweep can still report, and the
// error from the lowest failing index (never ctx.Err itself).
func RunCtx(ctx context.Context, workers, n int, fn func(i int) error) (prefix int, err error) {
	return run(ctx, workers, n, fn)
}

func run(ctx context.Context, workers, n int, fn func(i int) error) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return i, nil
			}
			if err := fn(i); err != nil {
				return i, err
			}
		}
		return n, nil
	}

	var (
		mu      sync.Mutex
		next    int // next index to dispatch
		done    = make([]bool, n)
		errs    = make([]error, n)
		stopped bool // a job failed or ctx was cancelled: stop dispatching
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || next >= n || ctx.Err() != nil {
			stopped = true
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				err := fn(i)
				mu.Lock()
				done[i] = true
				errs[i] = err
				if err != nil {
					stopped = true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	prefix := 0
	for prefix < n && done[prefix] && errs[prefix] == nil {
		prefix++
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return prefix, errs[i]
		}
	}
	return prefix, nil
}

// Map runs fn(i) for every i in [0, n) across at most workers goroutines
// and returns the results in input order — the common "sweep a slice of
// points" shape. On error the slice is nil.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Run(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
