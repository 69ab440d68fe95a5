package flitnet

import "math/bits"

// worklist is the event-driven engine's active set of int32 ids (lanes or
// flows), held as two bitmaps. Visiting the set bits of on in ascending
// order is exactly the order the dense per-cycle scan visited the ids.
// Additions made while a phase runs land in added and fold into on at the
// next phase boundary (fold), so the current phase's visiting order is
// never perturbed mid-flight; a phase drops an id from on at its visit
// once the id has nothing left to do. The bitmaps are sized once per id
// range and reused cycle over cycle, so steady-state operation allocates
// nothing, sorts nothing and hashes nothing.
type worklist struct {
	on    []uint64 // ids the current phase visits
	added []uint64 // ids activated since the last fold; disjoint from on
	n     int      // ids set in on or added
	// pending counts the ids set in added, so a fold with nothing to
	// fold costs nothing.
	pending int
}

// grow ensures the bitmaps cover ids 0..n-1.
func (w *worklist) grow(n int) {
	for len(w.on)*64 < n {
		w.on = append(w.on, 0)
		w.added = append(w.added, 0)
	}
}

// count returns how many ids are active, in on or awaiting a fold.
func (w *worklist) count() int { return w.n }

// has reports whether id is set in on.
func (w *worklist) has(id int32) bool { return w.on[id>>6]&(1<<(id&63)) != 0 }

// add activates an id; a no-op if it is already active.
func (w *worklist) add(id int32) {
	word, mask := id>>6, uint64(1)<<(id&63)
	if (w.on[word]|w.added[word])&mask != 0 {
		return
	}
	w.added[word] |= mask
	w.n++
	w.pending++
}

// drop deactivates an id the current phase has just visited.
func (w *worklist) drop(id int32) {
	w.on[id>>6] &^= 1 << (id & 63)
	w.n--
}

// fold moves the ids added since the last phase into on.
func (w *worklist) fold() {
	if w.pending == 0 {
		return
	}
	for i, a := range w.added {
		if a != 0 {
			w.on[i] |= a
			w.added[i] = 0
		}
	}
	w.pending = 0
}

// bit returns the id of the lowest set bit of word, which is word i of a
// bitmap.
func bit(i int, word uint64) int32 { return int32(i<<6 | bits.TrailingZeros64(word)) }

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
