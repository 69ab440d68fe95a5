package flitnet

import "slices"

// worklist is the event-driven engine's sorted active set: int32 ids (lanes
// or flows) kept in ascending order, which by construction is exactly the
// order the dense per-cycle scan visited them. Additions made while a cycle
// runs go to a side buffer and merge in at the next phase boundary, so the
// iteration order of the current cycle is never perturbed mid-flight. A
// mark bit per id keeps membership O(1) and duplicate-free. All backing
// arrays are reused cycle over cycle; steady-state operation allocates
// nothing.
type worklist struct {
	sorted  []int32 // the active set, ascending; compacted in place by the phase that consumes it
	added   []int32 // ids activated since the last merge, unsorted
	scratch []int32 // merge target, swapped with sorted to recycle both arrays
	mark    []bool  // mark[id]: id is present in sorted or added
}

// grow ensures the mark table covers ids 0..n-1.
func (w *worklist) grow(n int) {
	for len(w.mark) < n {
		w.mark = append(w.mark, false)
	}
}

// add activates an id; a no-op if it is already active.
func (w *worklist) add(id int32) {
	if int(id) >= len(w.mark) {
		w.grow(int(id) + 1)
	}
	if w.mark[id] {
		return
	}
	w.mark[id] = true
	w.added = append(w.added, id)
}

// merge folds the side buffer into the sorted set. The side buffer is
// typically tiny (lanes touched since last cycle), so it is sorted on its
// own and merged linearly rather than re-sorting the whole set.
func (w *worklist) merge() {
	if len(w.added) == 0 {
		return
	}
	slices.Sort(w.added)
	w.scratch = w.scratch[:0]
	i, j := 0, 0
	for i < len(w.sorted) && j < len(w.added) {
		if w.sorted[i] < w.added[j] {
			w.scratch = append(w.scratch, w.sorted[i])
			i++
		} else {
			w.scratch = append(w.scratch, w.added[j])
			j++
		}
	}
	w.scratch = append(w.scratch, w.sorted[i:]...)
	w.scratch = append(w.scratch, w.added[j:]...)
	w.sorted, w.scratch = w.scratch, w.sorted
	w.added = w.added[:0]
}

// wakeEntry schedules one sleeping flow's earliest possible wake cycle.
type wakeEntry struct {
	at   uint64
	flow int32
}

// wakeHeap is a binary min-heap of sleeping flows keyed by wake cycle. It
// lets the inject phase (and the idle fast-forward) find the next cycle
// anything can happen in O(1), instead of rescanning every flow's backoff
// timer each cycle. Entries are hints: a flow may carry a stale early entry
// after its front worm changed, which costs one no-op visit and nothing
// else, so pushes never need to search for duplicates.
type wakeHeap struct {
	h []wakeEntry
}

func (w *wakeHeap) len() int      { return len(w.h) }
func (w *wakeHeap) minAt() uint64 { return w.h[0].at }

func (w *wakeHeap) push(at uint64, flow int32) {
	w.h = append(w.h, wakeEntry{at, flow})
	i := len(w.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if w.h[parent].at <= w.h[i].at {
			break
		}
		w.h[parent], w.h[i] = w.h[i], w.h[parent]
		i = parent
	}
}

// pop removes and returns the flow with the earliest wake cycle.
func (w *wakeHeap) pop() int32 {
	flow := w.h[0].flow
	last := len(w.h) - 1
	w.h[0] = w.h[last]
	w.h = w.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(w.h) && w.h[l].at < w.h[smallest].at {
			smallest = l
		}
		if r < len(w.h) && w.h[r].at < w.h[smallest].at {
			smallest = r
		}
		if smallest == i {
			return flow
		}
		w.h[i], w.h[smallest] = w.h[smallest], w.h[i]
		i = smallest
	}
}
