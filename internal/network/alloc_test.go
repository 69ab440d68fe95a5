package network

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// allocsPerPacket reports the average heap allocations per packet of
// rounds calls to round, each of which moves perRound packets, after one
// warm-up round. Unlike testing.AllocsPerRun it keeps the fraction, so the
// payload slab's amortized refills show as the small share they are.
func allocsPerPacket(t *testing.T, perRound int, round func()) float64 {
	t.Helper()
	const rounds = 200
	total := testing.AllocsPerRun(1, func() {
		for i := 0; i < rounds; i++ {
			round()
		}
	})
	return total / float64(rounds*perRound)
}

// injectRecv injects k packets from node 0 to node 1, then receives k.
func injectRecv(t *testing.T, n Network, k int) func() {
	payload := []Word{1, 2, 3, 4}
	return func() {
		for i := 0; i < k; i++ {
			if err := n.Inject(Packet{Src: 0, Dst: 1, Data: payload}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < k; i++ {
			if _, ok := n.TryRecv(1); !ok {
				t.Fatal("lost packet")
			}
		}
	}
}

// Once warm, a packet round trip allocates nothing but its share of a
// payload slab: 4 of the slab's 256 words.
func TestSteadyStateInjectRecvAllocs(t *testing.T) {
	cases := []struct {
		name string
		net  Network
		k    int // packets per round, enough for the policy to release
	}{
		{"cm5/in-order", MustCM5Net(CM5Config{Nodes: 2}), 1},
		{"cm5/pair-swap", MustCM5Net(CM5Config{Nodes: 2, Reorder: PairSwap()}), 2},
		{"cm5/window-shuffle", MustCM5Net(CM5Config{Nodes: 2, Reorder: WindowShuffle(5, 3)}), 5},
		{"cr", MustCRNet(CRConfig{Nodes: 2}), 1},
	}
	for _, c := range cases {
		if got := allocsPerPacket(t, c.k, injectRecv(t, c.net, c.k)); got > 0.1 {
			t.Errorf("%s: %.3f allocs per packet, want <= 0.1", c.name, got)
		}
	}
}

// A queue that keeps a steady backlog while packets stream through it
// reuses its storage: its buffer stays a small multiple of the backlog.
func TestQueueStorageStaysBounded(t *testing.T) {
	const backlog, packets = 10, 100_000
	cm5 := MustCM5Net(CM5Config{Nodes: 2})
	cr := MustCRNet(CRConfig{Nodes: 2})
	for _, c := range []struct {
		name string
		net  Network
		q    *fifo
	}{
		{"cm5", cm5, &cm5.dsts[1].queue},
		{"cr", cr, &cr.dsts[1].queue},
	} {
		maxCap := 0
		for i := 0; i < packets; i++ {
			if err := c.net.Inject(Packet{Src: 0, Dst: 1, Head: Word(i)}); err != nil {
				t.Fatal(err)
			}
			if i < backlog {
				continue
			}
			p, ok := c.net.TryRecv(1)
			if !ok || p.Head != Word(i-backlog) {
				t.Fatalf("%s: packet %d: got head %d (ok=%v)", c.name, i-backlog, p.Head, ok)
			}
			maxCap = max(maxCap, c.q.storage())
		}
		if maxCap > 4*backlog {
			t.Errorf("%s: queue capacity reached %d for a backlog of %d", c.name, maxCap, backlog)
		}
	}
}

// storage is the packets the queue's chunks can hold.
func (q *fifo) storage() int {
	n := cap(q.spare)
	for _, c := range q.chunks {
		n += cap(c)
	}
	return n
}

// pop zeroes the slot it takes, so a queue references no delivered
// payload: not in a chunk it is still reading, not in a drained chunk it
// keeps for reuse.
func TestFIFOPopClearsSlots(t *testing.T) {
	var q fifo
	for i := 0; i < 8; i++ {
		q.push(Packet{Head: Word(i), Data: []Word{Word(i)}})
	}
	pop := func(i int) {
		t.Helper()
		if p, ok := q.pop(); !ok || p.Head != Word(i) {
			t.Fatalf("pop %d = %v, %v", i, p.Head, ok)
		}
	}
	for i := 0; i < 3; i++ {
		pop(i)
	}
	for i, p := range q.chunks[0][:q.head] {
		if p.Data != nil {
			t.Errorf("popped slot %d still holds a payload", i)
		}
	}
	pop(3) // the first chunk drains and becomes the spare
	if q.len() != 4 || len(q.chunks) != 1 || q.spare == nil {
		t.Fatalf("after draining a chunk: len %d, %d chunks, spare %v", q.len(), len(q.chunks), q.spare != nil)
	}
	for i, p := range q.spare[:cap(q.spare)] {
		if p.Data != nil {
			t.Errorf("spare slot %d still holds a payload", i)
		}
	}
	for i := 4; i < 8; i++ {
		pop(i)
	}
	if _, ok := q.pop(); ok || q.len() != 0 || len(q.chunks[0]) != 0 {
		t.Errorf("drained queue: len %d, last chunk holds %d", q.len(), len(q.chunks[0]))
	}
	for i, p := range q.chunks[0][:cap(q.chunks[0])] {
		if p.Data != nil {
			t.Errorf("drained slot %d still holds a payload", i)
		}
	}
}

// Every hop moves a Packet by value. On amd64 the compiler copies a struct
// of at most 64 bytes inline, with a few register moves, and a larger one
// with a call to runtime.duffcopy; so the small fields are packed and the
// observability ids sit behind one pointer, keeping a Packet at 64 bytes on
// a 64-bit platform.
func TestPacketSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes differ off 64-bit platforms")
	}
	if got := unsafe.Sizeof(Packet{}); got > 64 {
		t.Errorf("Packet takes %d bytes, want at most 64", got)
	}
}

// A delivered payload belongs to the receiver: writing to it or appending
// to it leaves every other packet's payload intact, although the copies
// share a slab.
func TestDeliveredPayloadBelongsToReceiver(t *testing.T) {
	for _, n := range []Network{MustCM5Net(CM5Config{Nodes: 2}), MustCRNet(CRConfig{Nodes: 2})} {
		for i := 0; i < 3; i++ {
			w := Word(10 * i)
			if err := n.Inject(Packet{Src: 0, Dst: 1, Data: []Word{w, w + 1}}); err != nil {
				t.Fatal(err)
			}
		}
		first, _ := n.TryRecv(1)
		first.Data[1] = 999
		_ = append(first.Data, 777, 778)
		for i := 1; i < 3; i++ {
			p, _ := n.TryRecv(1)
			if w := Word(10 * i); len(p.Data) != 2 || p.Data[0] != w || p.Data[1] != w+1 {
				t.Errorf("%s: packet %d payload = %v after the receiver wrote packet 0's", n.Name(), i, p.Data)
			}
		}
	}
}

// Seeding the window shuffle's generator lazily releases every packet in
// the order an up-front seeded generator gives, including when flushes of
// a single packet come before the first real shuffle.
func TestWindowShuffleLazySeedMatchesEager(t *testing.T) {
	const seed = 11
	r := WindowShuffle(4, seed)()
	eager := rand.New(rand.NewSource(seed))
	var got, want []Packet
	next := 0
	group := func(n int, flush bool) {
		batch := make([]Packet, n)
		for i := range batch {
			batch[i] = Packet{Head: Word(next)}
			next++
			got = r.Push(got, batch[i])
		}
		if flush {
			got = r.Flush(got)
		}
		eager.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		want = append(want, batch...)
	}
	group(1, true)
	group(1, true)
	group(4, false)
	group(3, true)
	group(4, false)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lazy release order %v, want %v", got, want)
	}
}
