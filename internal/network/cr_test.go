package network

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestCRDefaultsAndConfigErrors(t *testing.T) {
	if _, err := NewCRNet(CRConfig{Nodes: 0}); err == nil {
		t.Error("accepted zero nodes")
	}
	if _, err := NewCRNet(CRConfig{Nodes: 2, PacketWords: -3}); err == nil {
		t.Error("accepted negative packet size")
	}
	n := MustCRNet(CRConfig{Nodes: 2})
	if n.PacketWords() != 4 || n.Nodes() != 2 || n.Name() != "cr" {
		t.Errorf("identity wrong: %s nodes=%d pw=%d", n.Name(), n.Nodes(), n.PacketWords())
	}
}

func TestMustCRNetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCRNet(CRConfig{})
}

func TestCRValidatesPackets(t *testing.T) {
	n := MustCRNet(CRConfig{Nodes: 2})
	if err := n.Inject(Packet{Src: 0, Dst: 9}); !errors.Is(err, ErrBadPacket) {
		t.Errorf("Inject bad dst = %v", err)
	}
}

// The central CR guarantee: delivery order within every flow equals
// injection order, for any interleaving of flows.
func TestCRPreservesOrderProperty(t *testing.T) {
	prop := func(plan []uint8) bool {
		const nodes = 4
		type flowKey struct{ src, dst int }
		n := MustCRNet(CRConfig{Nodes: nodes})
		next := map[flowKey]Word{}
		for _, b := range plan {
			src := int(b) % nodes
			dst := int(b>>2) % nodes
			key := flowKey{src, dst}
			if err := n.Inject(Packet{Src: src, Dst: dst, Head: next[key]}); err != nil {
				return false
			}
			next[key]++
		}
		expect := map[flowKey]Word{}
		for node := 0; node < nodes; node++ {
			for {
				p, ok := n.TryRecv(node)
				if !ok {
					break
				}
				key := flowKey{p.Src, p.Dst}
				if p.Head != expect[key] {
					return false
				}
				expect[key]++
			}
		}
		// Everything injected must have been delivered.
		for key, sent := range next {
			if expect[key] != sent {
				return false
			}
		}
		return n.Pending() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCRHeaderRejection(t *testing.T) {
	n := MustCRNet(CRConfig{Nodes: 2})
	allow := false
	if err := n.SetAcceptor(1, func(p Packet) bool { return allow }); err != nil {
		t.Fatal(err)
	}
	err := n.Inject(Packet{Src: 0, Dst: 1, Head: 5})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("inject with refusing acceptor = %v, want ErrRejected", err)
	}
	if n.Stats().Rejected != 1 {
		t.Errorf("Rejected = %d", n.Stats().Rejected)
	}
	if _, ok := n.TryRecv(1); ok {
		t.Error("rejected packet was delivered")
	}
	// The sender retries later and the destination now has resources.
	allow = true
	if err := n.Inject(Packet{Src: 0, Dst: 1, Head: 5}); err != nil {
		t.Fatalf("retry = %v", err)
	}
	p, ok := n.TryRecv(1)
	if !ok || p.Head != 5 {
		t.Errorf("retried packet not delivered: %+v ok=%v", p, ok)
	}
	// Clearing the acceptor accepts everything.
	if err := n.SetAcceptor(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := n.Inject(Packet{Src: 0, Dst: 1}); err != nil {
		t.Errorf("inject with cleared acceptor = %v", err)
	}
}

func TestCRSetAcceptorBadNode(t *testing.T) {
	n := MustCRNet(CRConfig{Nodes: 2})
	if err := n.SetAcceptor(5, nil); err == nil {
		t.Error("SetAcceptor(5) accepted")
	}
}

func TestCRFiniteCapacityBackpressures(t *testing.T) {
	n := MustCRNet(CRConfig{Nodes: 2, Capacity: 2})
	for i := 0; i < 2; i++ {
		if err := n.Inject(Packet{Src: 0, Dst: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Inject(Packet{Src: 0, Dst: 1}); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("over-capacity inject = %v, want ErrBackpressure", err)
	}
}

func TestCRTransientFaultsAreInvisible(t *testing.T) {
	n := MustCRNet(CRConfig{
		Nodes:           2,
		TransientFaults: &EveryNth{N: 2, What: Drop},
	})
	for i := 0; i < 4; i++ {
		if err := n.Inject(Packet{Src: 0, Dst: 1, Head: Word(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []Word
	for {
		p, ok := n.TryRecv(1)
		if !ok {
			break
		}
		if p.Corrupt {
			t.Error("CR delivered a corrupt packet")
		}
		got = append(got, p.Head)
	}
	if len(got) != 4 {
		t.Fatalf("delivered %d packets, want all 4", len(got))
	}
	for i, w := range got {
		if w != Word(i) {
			t.Errorf("delivery %d = %d (order violated)", i, w)
		}
	}
	if n.Stats().HWRetries == 0 {
		t.Error("expected hardware retries to be counted")
	}
}

func TestCRTryRecvBadNode(t *testing.T) {
	n := MustCRNet(CRConfig{Nodes: 2})
	if _, ok := n.TryRecv(-1); ok {
		t.Error("TryRecv(-1) returned a packet")
	}
}

func TestCRPayloadIsolation(t *testing.T) {
	n := MustCRNet(CRConfig{Nodes: 2})
	buf := []Word{1, 2}
	if err := n.Inject(Packet{Src: 0, Dst: 1, Data: buf}); err != nil {
		t.Fatal(err)
	}
	buf[0] = 42
	p, _ := n.TryRecv(1)
	if p.Data[0] != 1 {
		t.Error("payload aliased the caller's buffer")
	}
}
