package protocols

import (
	"testing"

	"msglayer/internal/cmam"
	"msglayer/internal/cost"
	"msglayer/internal/machine"
	"msglayer/internal/network"
)

// twoNode builds a two-node machine over the given network with roles set
// for a 0 -> 1 transfer.
func twoNode(t *testing.T, net network.Network) *machine.Machine {
	t.Helper()
	m := machine.MustNew(net, cost.MustPaperSchedule(net.PacketWords()))
	m.Node(0).SetRole(cost.Source)
	m.Node(1).SetRole(cost.Destination)
	return m
}

// pattern fills a test payload with recognizable words.
func pattern(words int) []network.Word {
	data := make([]network.Word, words)
	for i := range data {
		data[i] = network.Word(i*7 + 3)
	}
	return data
}

// runFinite performs one finite transfer of the given payload and returns
// the machine and what the receiver got.
func runFinite(t *testing.T, net network.Network, data []network.Word) (*machine.Machine, []network.Word) {
	t.Helper()
	m := twoNode(t, net)
	srcSvc := NewFinite(cmam.NewEndpoint(m.Node(0)))
	dstSvc := NewFinite(cmam.NewEndpoint(m.Node(1)))

	var received []network.Word
	dstSvc.OnReceive = func(src int, buf []network.Word) {
		if src != 0 {
			t.Errorf("OnReceive src = %d", src)
		}
		received = buf
	}

	tr, err := srcSvc.Start(1, data)
	if err != nil {
		t.Fatal(err)
	}
	err = machine.Run(100000,
		machine.StepFunc(func() (bool, error) { return tr.Done(), srcSvc.Pump() }),
		machine.StepFunc(func() (bool, error) { return tr.Done(), dstSvc.Pump() }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Done() {
		t.Fatal("transfer not done")
	}
	return m, received
}

// finiteWant returns the paper's Appendix A finite-sequence expectations
// for p packets of four words (see internal/cost/schedule_test.go for the
// derivation).
func finiteWant(p uint64) map[cost.Role]map[cost.Feature]cost.Vec {
	return map[cost.Role]map[cost.Feature]cost.Vec{
		cost.Source: {
			cost.Base:       cost.V(2, 1, 0).Add(cost.V(15, 2, 5).Scale(p)),
			cost.BufferMgmt: cost.V(36, 1, 10),
			cost.InOrder:    cost.V(2, 0, 0).Scale(p),
			cost.FaultTol:   cost.V(22, 0, 5),
		},
		cost.Destination: {
			cost.Base:       cost.V(14, 3, 1).Add(cost.V(12, 2, 4).Scale(p)),
			cost.BufferMgmt: cost.V(79, 12, 10),
			cost.InOrder:    cost.V(1, 0, 0).Add(cost.V(3, 0, 0).Scale(p)),
			cost.FaultTol:   cost.V(14, 1, 5),
		},
	}
}

func checkCells(t *testing.T, m *machine.Machine, want map[cost.Role]map[cost.Feature]cost.Vec) {
	t.Helper()
	gauges := map[cost.Role]*cost.Gauge{
		cost.Source:      m.Node(0).Gauge,
		cost.Destination: m.Node(1).Gauge,
	}
	for role, features := range want {
		for f, v := range features {
			if got := gauges[role].Cell(role, f); got != v {
				t.Errorf("%s/%s = %v, want %v", role, f, got, v)
			}
		}
	}
}

// The emergent instruction counts of a real 16-word transfer reproduce the
// paper's Table 2 / Table 3 finite-sequence column exactly.
func TestFiniteTransfer16WordsMatchesPaper(t *testing.T) {
	net := network.MustCM5Net(network.CM5Config{Nodes: 2})
	data := pattern(16)
	m, received := runFinite(t, net, data)

	if len(received) != 16 {
		t.Fatalf("received %d words", len(received))
	}
	for i := range data {
		if received[i] != data[i] {
			t.Fatalf("word %d = %d, want %d", i, received[i], data[i])
		}
	}
	checkCells(t, m, finiteWant(4))

	// Table 2 totals for the 16-word transfer (derived from Appendix A;
	// see DESIGN.md on the corrupted Table 2 panel): 173 source, 224
	// destination, 397 total.
	src := m.Node(0).Gauge.RoleTotal(cost.Source).Total()
	dst := m.Node(1).Gauge.RoleTotal(cost.Destination).Total()
	if src != 173 || dst != 224 {
		t.Errorf("totals = %d/%d, want 173/224", src, dst)
	}
}

// Same at 1024 words: Table 2's published totals 6221/5516/11737.
func TestFiniteTransfer1024WordsMatchesPaper(t *testing.T) {
	net := network.MustCM5Net(network.CM5Config{Nodes: 2})
	m, received := runFinite(t, net, pattern(1024))
	if len(received) != 1024 {
		t.Fatalf("received %d words", len(received))
	}
	checkCells(t, m, finiteWant(256))
	src := m.Node(0).Gauge.RoleTotal(cost.Source).Total()
	dst := m.Node(1).Gauge.RoleTotal(cost.Destination).Total()
	if src != 6221 || dst != 5516 || src+dst != 11737 {
		t.Errorf("totals = %d/%d/%d, want 6221/5516/11737", src, dst, src+dst)
	}
}

// The finite protocol's carried offsets make it immune to delivery order:
// identical results and identical costs under heavy reordering.
func TestFiniteTransferUnaffectedByReordering(t *testing.T) {
	plain := network.MustCM5Net(network.CM5Config{Nodes: 2})
	mPlain, _ := runFinite(t, plain, pattern(64))

	shuffled := network.MustCM5Net(network.CM5Config{Nodes: 2, Reorder: network.WindowShuffle(7, 99)})
	mShuffled, received := runFinite(t, shuffled, pattern(64))

	want := pattern(64)
	for i := range want {
		if received[i] != want[i] {
			t.Fatalf("reordered transfer corrupted word %d", i)
		}
	}
	if mPlain.TotalGauge().Total() != mShuffled.TotalGauge().Total() {
		t.Errorf("reordering changed finite-protocol cost: %v vs %v",
			mPlain.TotalGauge().Total(), mShuffled.TotalGauge().Total())
	}
}

// Packet counts and sizes that do not divide evenly still deliver exactly.
func TestFiniteTransferOddSizes(t *testing.T) {
	for _, words := range []int{1, 3, 5, 17, 101} {
		net := network.MustCM5Net(network.CM5Config{Nodes: 2})
		data := pattern(words)
		_, received := runFinite(t, net, data)
		if len(received) != words {
			t.Fatalf("words=%d: received %d", words, len(received))
		}
		for i := range data {
			if received[i] != data[i] {
				t.Fatalf("words=%d: word %d corrupted", words, i)
			}
		}
	}
}

// Finite network buffering backpressures the sender; the protocol retries
// and still completes with the data intact.
func TestFiniteTransferUnderBackpressure(t *testing.T) {
	net := network.MustCM5Net(network.CM5Config{Nodes: 2, Capacity: 2})
	data := pattern(64)
	m, received := runFinite(t, net, data)
	for i := range data {
		if received[i] != data[i] {
			t.Fatalf("word %d corrupted under backpressure", i)
		}
	}
	if m.Node(0).Gauge.Events("finite.backpressure") == 0 {
		t.Error("expected backpressure events with capacity 2")
	}
}

func TestFiniteStartValidation(t *testing.T) {
	net := network.MustCM5Net(network.CM5Config{Nodes: 2})
	m := twoNode(t, net)
	svc := NewFinite(cmam.NewEndpoint(m.Node(0)))
	if _, err := svc.Start(1, nil); err == nil {
		t.Error("Start accepted empty transfer")
	}
	if _, err := svc.Start(1, make([]network.Word, maxFiniteWords)); err == nil {
		t.Error("Start accepted transfer beyond the offset field")
	}
}

// Multiple concurrent transfers between the same pair of nodes complete
// independently.
func TestFiniteConcurrentTransfers(t *testing.T) {
	net := network.MustCM5Net(network.CM5Config{Nodes: 2})
	m := twoNode(t, net)
	srcSvc := NewFinite(cmam.NewEndpoint(m.Node(0)))
	dstSvc := NewFinite(cmam.NewEndpoint(m.Node(1)))

	var got [][]network.Word
	dstSvc.OnReceive = func(src int, buf []network.Word) { got = append(got, buf) }

	a, err := srcSvc.Start(1, pattern(8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := srcSvc.Start(1, pattern(12))
	if err != nil {
		t.Fatal(err)
	}
	err = machine.Run(100000,
		machine.StepFunc(func() (bool, error) { return a.Done() && b.Done(), srcSvc.Pump() }),
		machine.StepFunc(func() (bool, error) { return a.Done() && b.Done(), dstSvc.Pump() }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("completed %d transfers, want 2", len(got))
	}
	sizes := map[int]bool{len(got[0]): true, len(got[1]): true}
	if !sizes[8] || !sizes[12] {
		t.Errorf("transfer sizes = %d, %d", len(got[0]), len(got[1]))
	}
}

// Transfers in both directions at once: each node is simultaneously a
// source and a destination.
func TestFiniteBidirectional(t *testing.T) {
	net := network.MustCM5Net(network.CM5Config{Nodes: 2})
	m := twoNode(t, net)
	svc0 := NewFinite(cmam.NewEndpoint(m.Node(0)))
	svc1 := NewFinite(cmam.NewEndpoint(m.Node(1)))

	var at0, at1 []network.Word
	svc0.OnReceive = func(_ int, buf []network.Word) { at0 = buf }
	svc1.OnReceive = func(_ int, buf []network.Word) { at1 = buf }

	f, err := svc0.Start(1, pattern(20))
	if err != nil {
		t.Fatal(err)
	}
	g, err := svc1.Start(0, pattern(24))
	if err != nil {
		t.Fatal(err)
	}
	err = machine.Run(100000,
		machine.StepFunc(func() (bool, error) { return f.Done() && g.Done(), svc0.Pump() }),
		machine.StepFunc(func() (bool, error) { return f.Done() && g.Done(), svc1.Pump() }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(at1) != 20 || len(at0) != 24 {
		t.Errorf("received %d at node1, %d at node0; want 20, 24", len(at1), len(at0))
	}
}

// The per-packet event counts explain the cost totals: p data packets, one
// handshake round trip, one acknowledgement.
func TestFiniteEventCounts(t *testing.T) {
	net := network.MustCM5Net(network.CM5Config{Nodes: 2})
	m, _ := runFinite(t, net, pattern(16))
	src, dst := m.Node(0).Gauge, m.Node(1).Gauge
	if got := src.Events("finite.packet.sent"); got != 4 {
		t.Errorf("packets sent = %d, want 4", got)
	}
	if got := dst.Events("finite.packet.recv"); got != 4 {
		t.Errorf("packets received = %d, want 4", got)
	}
	if got := dst.Events("finite.ack.sent"); got != 1 {
		t.Errorf("acks sent = %d, want 1", got)
	}
	if got := src.Events("finite.ack.recv"); got != 1 {
		t.Errorf("acks received = %d, want 1", got)
	}
}

// Faulty finite transfers longer than the substrate's buffering bound
// complete byte-exact: a retransmission cut off by backpressure resumes
// where it stopped, so the packets past the bound and the closing probe
// are sent too. The fault, reorder, and timeout settings are
// TestTortureMixedTraffic's, with its 64-packet bound; every transfer is
// more than 64 packets long.
func TestFiniteRetransmitUnderBoundedBuffering(t *testing.T) {
	var retries, backpressured uint64
	for _, words := range []int{300, 512, 1024} {
		for seed := int64(1); seed <= 8; seed++ {
			net := network.MustCM5Net(network.CM5Config{
				Nodes:    2,
				Reorder:  network.WindowShuffle(5, seed),
				Faults:   network.NewSeededRate(0.02, seed+1),
				Capacity: 64,
			})
			m := twoNode(t, net)
			srcSvc := NewFinite(cmam.NewEndpoint(m.Node(0)))
			dstSvc := NewFinite(cmam.NewEndpoint(m.Node(1)))
			srcSvc.RetransmitAfter, dstSvc.RetransmitAfter = 128, 128
			var got []network.Word
			dstSvc.OnReceive = func(_ int, buf []network.Word) { got = buf }

			data := pattern(words)
			tr, err := srcSvc.Start(1, data)
			if err != nil {
				t.Fatal(err)
			}
			err = machine.Run(1_000_000,
				machine.StepFunc(func() (bool, error) { return tr.Done(), srcSvc.Pump() }),
				machine.StepFunc(func() (bool, error) { return tr.Done(), dstSvc.Pump() }),
			)
			if err != nil {
				t.Fatalf("%d words, seed %d: %v", words, seed, err)
			}
			if len(got) != len(data) {
				t.Fatalf("%d words, seed %d: received %d words", words, seed, len(got))
			}
			for i := range data {
				if got[i] != data[i] {
					t.Fatalf("%d words, seed %d: word %d corrupted", words, seed, i)
				}
			}
			retries += m.Node(0).Gauge.Events("finite.retry.data")
			backpressured += net.Stats().Backpressure
		}
	}
	if retries == 0 || backpressured == 0 {
		t.Errorf("no backpressured retransmission exercised: %d retries, %d backpressured injections",
			retries, backpressured)
	}
}
