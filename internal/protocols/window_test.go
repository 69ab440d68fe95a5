package protocols

import (
	"errors"
	"math"
	"testing"

	"msglayer/internal/network"
)

// words returns a one-word payload naming a sequence number.
func words(seq uint32) []network.Word { return []network.Word{network.Word(seq)} }

// checkWindow requires the window to retain exactly the sequence numbers
// [from, from+n), each with its own payload and message identity.
func checkWindow(t *testing.T, w *sendWindow, from uint32, n int) {
	t.Helper()
	if w.base != from || w.n != n {
		t.Fatalf("window [%d, +%d), want [%d, +%d)", w.base, w.n, from, n)
	}
	for i := 0; i < n; i++ {
		seq := from + uint32(i)
		r, ok := w.get(seq)
		if !ok || len(r.data) != 1 || r.data[0] != network.Word(seq) || r.msg != uint64(seq)+1 {
			t.Fatalf("seq %d: %v, %v", seq, r, ok)
		}
	}
	for _, seq := range []uint32{from - 1, from + uint32(n)} {
		if _, ok := w.get(seq); ok {
			t.Fatalf("seq %d is outside the window but found", seq)
		}
	}
}

// Sequence numbers run modulo 2³²: a window whose packets straddle the
// wrap retains, finds and releases them like any other.
func TestSendWindowAcrossSequenceWrap(t *testing.T) {
	start := uint32(math.MaxUint32 - 4)
	w := &sendWindow{base: start}
	for i := uint32(0); i < 12; i++ {
		w.push(words(start+i), uint64(start+i)+1)
	}
	checkWindow(t, w, start, 12)

	w.release(start + 6) // sequence number 1, past the wrap
	checkWindow(t, w, start+7, 5)

	w.release(start + 3) // behind the window: an old acknowledgement
	checkWindow(t, w, start+7, 5)

	w.release(start + 100) // past the window: everything
	checkWindow(t, w, start+12, 0)
}

// A full ring whose oldest packet is not in slot 0 grows without losing
// the order of what it retains.
func TestSendWindowGrowsWhenFull(t *testing.T) {
	w := &sendWindow{}
	seq := uint32(0)
	push := func(k int) {
		for ; k > 0; k-- {
			w.push(words(seq), uint64(seq)+1)
			seq++
		}
	}
	push(8)
	w.release(2) // slots 0-2 free, head at slot 3
	push(3)      // the ring is full again, wrapped
	if w.n != len(w.slots) || w.head == 0 {
		t.Fatalf("ring %d/%d with head %d, want full and wrapped", w.n, len(w.slots), w.head)
	}
	push(1)
	if len(w.slots) != 16 {
		t.Errorf("ring grew to %d slots, want 16", len(w.slots))
	}
	checkWindow(t, w, 3, 9)
}

// A connection with MaxUnacked packets awaiting acknowledgement refuses
// the next send until an acknowledgement frees the window.
func TestStreamFullWindow(t *testing.T) {
	net := network.MustCM5Net(network.CM5Config{Nodes: 2})
	rig := newStreamRig(t, net, StreamConfig{MaxUnacked: 4})
	c := rig.src.Open(1, 0)
	sendPackets(t, c, 4)
	if err := c.Send(1); !errors.Is(err, ErrWindowFull) {
		t.Fatalf("fifth send = %v, want ErrWindowFull", err)
	}
	if c.Unacked() != 4 {
		t.Fatalf("%d unacked, want 4", c.Unacked())
	}
	rig.run(t, c)
	if c.Unacked() != 0 {
		t.Fatalf("%d unacked after the run", c.Unacked())
	}
	for i := 4; i < 8; i++ {
		base := network.Word(i * 4)
		if err := c.Send(base, base+1, base+2, base+3); err != nil {
			t.Fatal(err)
		}
	}
	rig.run(t, c)
	rig.checkDelivered(t, 8)
}

// Losing the head packet leaves every later arrival buffered behind it.
// Both recoveries bring it back: the receiver's NACK and the sender's
// timeout. Everything is delivered once, in order.
func TestStreamLostHeadPacket(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   StreamConfig
		event string // the sender's event that shows the recovery
	}{
		{"nack", StreamConfig{NackThreshold: 3}, "stream.nack.recv"},
		{"timeout", StreamConfig{NackThreshold: -1, RetransmitAfter: 4}, "stream.timeout"},
	} {
		t.Run(c.name, func(t *testing.T) {
			plan := &network.TargetSeqs{Src: 0, Dst: 1, Seqs: map[uint64]network.Outcome{0: network.Drop}}
			rig := newStreamRig(t, network.MustCM5Net(network.CM5Config{Nodes: 2, Faults: plan}), c.cfg)
			conn := rig.src.Open(1, 0)
			sendPackets(t, conn, 10)
			rig.run(t, conn)
			rig.checkDelivered(t, 10)
			if rig.m.Node(0).Gauge.Events(c.event) == 0 {
				t.Errorf("no %s event", c.event)
			}
			if got := rig.m.Node(1).Gauge.Events("stream.drain"); got != 9 {
				t.Errorf("%d buffered packets drained, want 9", got)
			}
		})
	}
}

// Arrivals far past the expected packet grow the reorder ring to span
// them; the drain then delivers each once, in order.
func TestReorderBufferGrowsForFarArrivals(t *testing.T) {
	var b reorderBuffer
	const far = 1000
	if !b.put(far, words(far)) {
		t.Fatal("first arrival reported as a duplicate")
	}
	if len(b.slots) != 1024 {
		t.Fatalf("ring has %d slots, want 1024", len(b.slots))
	}
	for k := uint32(far - 1); k >= 1; k-- {
		if !b.put(k, words(k)) {
			t.Fatalf("arrival %d reported as a duplicate", k)
		}
	}
	if b.put(500, words(500)) || b.count != far {
		t.Fatalf("duplicate accepted, or count %d != %d", b.count, far)
	}
	// Packet 0 was delivered directly; the drain follows.
	for want := uint32(1); want <= far; want++ {
		data, ok := b.advance()
		if !ok || data[0] != network.Word(want) {
			t.Fatalf("drain %d: %v, %v", want, data, ok)
		}
	}
	if _, ok := b.advance(); ok || b.count != 0 {
		t.Errorf("ring still drains after the last packet (count %d)", b.count)
	}
}

// Through the protocol: with the head packet lost and no recovery until
// late, a long stream piles up in the receiver's ring, which grows past
// its first size and still delivers in order.
func TestStreamReorderRingGrows(t *testing.T) {
	plan := &network.TargetSeqs{Src: 0, Dst: 1, Seqs: map[uint64]network.Outcome{0: network.Drop}}
	rig := newStreamRig(t, network.MustCM5Net(network.CM5Config{Nodes: 2, Faults: plan}),
		StreamConfig{NackThreshold: -1, RetransmitAfter: 50})
	conn := rig.src.Open(1, 0)
	sendPackets(t, conn, 300)
	rig.run(t, conn)
	rig.checkDelivered(t, 300)
	if n := len(rig.dst.in[0].buffered.slots); n < 300 {
		t.Errorf("reorder ring has %d slots for 299 buffered packets", n)
	}
}

// A malformed acknowledgement through 2³²−1 lies behind the window in
// modulo-2³² order: it releases nothing, and the source's pump returns.
func TestStreamAckThroughLastSequenceNumber(t *testing.T) {
	rig := newStreamRig(t, network.MustCM5Net(network.CM5Config{Nodes: 2}), StreamConfig{})
	c := rig.src.Open(1, 0)
	sendPackets(t, c, 1)
	if err := rig.dst.ep.SendAM(0, HStreamAck, 0, nil, 0, math.MaxUint32); err != nil {
		t.Fatal(err)
	}
	if err := rig.src.Pump(); err != nil {
		t.Fatal(err)
	}
	if c.Unacked() != 1 {
		t.Errorf("%d unacked after the malformed acknowledgement, want 1", c.Unacked())
	}
}
