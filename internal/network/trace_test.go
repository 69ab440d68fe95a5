package network_test

import (
	"testing"

	"msglayer/internal/flitnet"
	"msglayer/internal/network"
	"msglayer/internal/topology"
)

// A stamped identity crosses every substrate as the sender's record: the
// delivered packet points at the same Trace, whose ids are unchanged, and
// an untraced packet arrives with a nil Trace. The reordering policies
// move packets through their holding buffers and the flit engine through
// its worms, so each is a hop the pointer must survive. Two packets in
// three are traced, so a swapped pair mixes traced and untraced packets in
// both positions.
func TestTraceCrossesSubstrates(t *testing.T) {
	mesh, err := topology.NewMesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	flit, err := flitnet.New(flitnet.Config{Topology: mesh, Mode: flitnet.Adaptive})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		net   network.Network
		drain func()
	}{
		{"cm5/in-order", network.MustCM5Net(network.CM5Config{Nodes: 2}), nil},
		{"cm5/pair-swap", network.MustCM5Net(network.CM5Config{Nodes: 2, Reorder: network.PairSwap()}), nil},
		{"cm5/window-shuffle", network.MustCM5Net(network.CM5Config{Nodes: 2, Reorder: network.WindowShuffle(5, 3)}), nil},
		{"cr", network.MustCRNet(network.CRConfig{Nodes: 2}), nil},
		{"flitnet", flit, func() {
			if !flit.TickUntilQuiet(100_000) {
				t.Fatal("flit network never drained")
			}
		}},
	}
	const packets = 12
	traced := func(i int) bool { return i%3 != 2 }
	for _, c := range cases {
		sent := make([]network.Trace, packets)
		for i := 0; i < packets; i++ {
			p := network.Packet{Src: 0, Dst: 1, Head: network.Word(i), Data: []network.Word{network.Word(i)}}
			if traced(i) {
				sent[i] = network.Trace{Msg: uint64(i + 1), Span: uint64(100 + i), Pkt: uint64(1000 + i)}
				p.Trace = &sent[i]
			}
			if err := c.net.Inject(p); err != nil {
				t.Fatalf("%s: inject %d: %v", c.name, i, err)
			}
		}
		if c.drain != nil {
			c.drain()
		}
		got := 0
		for {
			p, ok := c.net.TryRecv(1)
			if !ok {
				break
			}
			got++
			i := int(p.Head)
			switch {
			case !traced(i) && p.Trace != nil:
				t.Errorf("%s: untraced packet %d arrived with trace %+v", c.name, i, *p.Trace)
			case traced(i) && p.Trace != &sent[i]:
				t.Errorf("%s: packet %d arrived with trace %p, want the sender's record %p", c.name, i, p.Trace, &sent[i])
			case traced(i) && *p.Trace != (network.Trace{Msg: uint64(i + 1), Span: uint64(100 + i), Pkt: uint64(1000 + i)}):
				t.Errorf("%s: packet %d trace changed to %+v", c.name, i, *p.Trace)
			}
		}
		if got != packets {
			t.Errorf("%s: received %d packets, want %d", c.name, got, packets)
		}
	}
}
