package protocols

import "msglayer/internal/network"

// sendWindow is a stream connection's retained copies: the packets of
// sequence numbers [base, base+n), in a ring indexed by seq−base. The
// retransmission copies are carved from the connection's slab and belong
// to the connection until acknowledged; only the NI's staging copies out
// of them. Sequence arithmetic is modulo 2³², so the window is correct
// across a wrap of the sequence space.
type sendWindow struct {
	base  uint32 // oldest unacknowledged sequence number
	head  int    // ring slot of base
	n     int    // packets retained
	slots []retained
	slab  network.Slab
}

// retained is one packet awaiting acknowledgement.
type retained struct {
	data []network.Word
	msg  uint64 // the Send's observability message identity, 0 when untraced
}

// push retains a copy of the packet with sequence number base+n.
func (w *sendWindow) push(data []network.Word, msg uint64) {
	if w.n == len(w.slots) {
		w.slots = regrow(w.slots, w.head, w.n, w.n+1)
		w.head = 0
	}
	w.slots[(w.head+w.n)&(len(w.slots)-1)] = retained{w.slab.Clone(data), msg}
	w.n++
}

// get returns the retained packet with a sequence number, false when it
// is not in the window (acknowledged, or never sent).
func (w *sendWindow) get(seq uint32) (retained, bool) {
	off := seq - w.base
	if off >= uint32(w.n) {
		return retained{}, false
	}
	return w.slots[(w.head+int(off))&(len(w.slots)-1)], true
}

// release drops the packets through a cumulative acknowledgement. An
// acknowledgement behind base releases nothing; one past the window
// releases everything.
func (w *sendWindow) release(through uint32) {
	d := through - w.base + 1 // packets acknowledged, if through >= base
	if int32(d) <= 0 {
		return
	}
	k := min(int(d), w.n)
	for i := 0; i < k; i++ {
		w.slots[(w.head+i)&(len(w.slots)-1)] = retained{}
	}
	w.head = (w.head + k) & (len(w.slots) - 1)
	w.n -= k
	w.base += uint32(k)
}

// reorderBuffer is a stream channel's out-of-order arrivals: the packet of
// sequence number expected+k sits k slots past head. A sender has at most
// its window in flight, so the ring spans at most that window.
type reorderBuffer struct {
	head  int
	count int // packets buffered
	slots []arrival
}

type arrival struct {
	data []network.Word
	ok   bool
}

// put buffers the packet k ≥ 1 slots past the expected one, reporting
// false when that packet is already buffered. The payload is the
// network's delivered copy, which belongs to the receiver, so it is kept
// without copying.
func (b *reorderBuffer) put(k uint32, data []network.Word) bool {
	if int(k) >= len(b.slots) {
		b.slots = regrow(b.slots, b.head, len(b.slots), int(k)+1)
		b.head = 0
	}
	a := &b.slots[(b.head+int(k))&(len(b.slots)-1)]
	if a.ok {
		return false
	}
	*a = arrival{data, true}
	b.count++
	return true
}

// advance moves past the expected packet, which was delivered, and
// returns the next one if it is buffered.
func (b *reorderBuffer) advance() ([]network.Word, bool) {
	if len(b.slots) == 0 {
		return nil, false
	}
	b.head = (b.head + 1) & (len(b.slots) - 1)
	a := &b.slots[b.head]
	if !a.ok {
		return nil, false
	}
	data := a.data
	*a = arrival{}
	b.count--
	return data, true
}

// regrow returns a ring of at least need slots (a power of two, at least
// 8) holding the n entries that start at slot head of ring, from slot 0.
func regrow[T any](ring []T, head, n, need int) []T {
	size := max(8, len(ring))
	for size < need {
		size *= 2
	}
	out := make([]T, size)
	for i := 0; i < n; i++ {
		out[i] = ring[(head+i)&(len(ring)-1)]
	}
	return out
}
