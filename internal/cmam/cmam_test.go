package cmam

import (
	"errors"
	"testing"

	"msglayer/internal/cost"
	"msglayer/internal/machine"
	"msglayer/internal/network"
)

// pair builds a two-node CM-5 machine with endpoints.
func pair(t *testing.T, cfg network.CM5Config) (*Endpoint, *Endpoint, *machine.Machine) {
	t.Helper()
	cfg.Nodes = 2
	m := machine.MustNew(network.MustCM5Net(cfg), cost.MustPaperSchedule(4))
	m.Node(0).SetRole(cost.Source)
	m.Node(1).SetRole(cost.Destination)
	return NewEndpoint(m.Node(0)), NewEndpoint(m.Node(1)), m
}

func TestAM4DeliveryAndTable1Costs(t *testing.T) {
	src, dst, _ := pair(t, network.CM5Config{})

	var got []network.Word
	var from int
	dst.Register(1, func(s int, args []network.Word) {
		from = s
		got = append(got, args...)
	})

	if err := src.AM4(1, 1, 10, 20, 30, 40); err != nil {
		t.Fatal(err)
	}
	ok, err := dst.PollSingle()
	if err != nil || !ok {
		t.Fatalf("PollSingle = %v, %v", ok, err)
	}

	if from != 0 || len(got) != 4 || got[0] != 10 || got[3] != 40 {
		t.Errorf("handler saw src=%d args=%v", from, got)
	}

	// The costs are exactly Table 1: 20 at the source, 27 at the
	// destination, all Base.
	sg := src.Node().Gauge.Cell(cost.Source, cost.Base)
	dg := dst.Node().Gauge.Cell(cost.Destination, cost.Base)
	if sg.Total() != 20 {
		t.Errorf("source cost = %d, want 20", sg.Total())
	}
	if dg.Total() != 27 {
		t.Errorf("destination cost = %d, want 27", dg.Total())
	}
}

func TestAM4RejectsOversizeArgs(t *testing.T) {
	src, _, _ := pair(t, network.CM5Config{})
	if err := src.AM4(1, 1, 1, 2, 3, 4, 5); err == nil {
		t.Error("AM4 accepted five args on a four-word packet")
	}
}

func TestPollSingleWithNothingWaiting(t *testing.T) {
	_, dst, _ := pair(t, network.CM5Config{})
	ok, err := dst.PollSingle()
	if err != nil || ok {
		t.Errorf("PollSingle on empty network = %v, %v", ok, err)
	}
	if got := dst.Node().Gauge.Total(); !got.IsZero() {
		t.Errorf("empty poll charged %v", got)
	}
}

func TestUnregisteredHandlerErrors(t *testing.T) {
	src, dst, _ := pair(t, network.CM5Config{})
	if err := src.AM4(1, 42, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Poll(0); !errors.Is(err, ErrNoHandler) {
		t.Errorf("Poll = %v, want ErrNoHandler", err)
	}
}

func TestUnknownTagErrors(t *testing.T) {
	src, dst, _ := pair(t, network.CM5Config{})
	if err := src.Send(1, network.Tag(9), 0, nil, cost.Base, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Poll(0); err == nil {
		t.Error("Poll accepted unknown tag")
	}
}

func TestSendChargesOptionalBundle(t *testing.T) {
	src, _, _ := pair(t, network.CM5Config{})
	if err := src.Send(1, TagAM, 0, nil, cost.FaultTol, src.Node().Sched.XferAckSend); err != nil {
		t.Fatal(err)
	}
	if got := src.Node().Gauge.Cell(cost.Source, cost.FaultTol).Total(); got != 20 {
		t.Errorf("fault-tolerance charge = %d, want 20", got)
	}
	// nil bundle charges nothing.
	if err := src.Send(1, TagAM, 0, nil, cost.Base, nil); err != nil {
		t.Fatal(err)
	}
	if got := src.Node().Gauge.Cell(cost.Source, cost.Base).Total(); got != 0 {
		t.Errorf("nil bundle charged %d", got)
	}
}

func TestSegmentTransfer(t *testing.T) {
	src, dst, _ := pair(t, network.CM5Config{})

	buf := make([]network.Word, 8)
	var packets, doneCalls int
	seg, err := dst.AllocSegment(buf, 8, func(off, words int) { packets++ }, func() { doneCalls++ })
	if err != nil {
		t.Fatal(err)
	}

	// Send two four-word packets at offsets 4 and 0 (out of order is fine;
	// offsets place the data).
	if err := src.SendXfer(1, seg, 4, []network.Word{5, 6, 7, 8}, cost.Base, nil); err != nil {
		t.Fatal(err)
	}
	if err := src.SendXfer(1, seg, 0, []network.Word{1, 2, 3, 4}, cost.Base, nil); err != nil {
		t.Fatal(err)
	}
	if n, err := dst.Poll(0); err != nil || n != 2 {
		t.Fatalf("Poll = %d, %v", n, err)
	}

	for i, want := range []network.Word{1, 2, 3, 4, 5, 6, 7, 8} {
		if buf[i] != want {
			t.Errorf("buf[%d] = %d, want %d", i, buf[i], want)
		}
	}
	if packets != 2 || doneCalls != 1 {
		t.Errorf("hooks: packets=%d done=%d", packets, doneCalls)
	}
	if rem, err := dst.SegmentRemaining(seg); err != nil || rem != 0 {
		t.Errorf("remaining = %d, %v", rem, err)
	}

	if err := dst.FreeSegment(seg); err != nil {
		t.Fatal(err)
	}
	if err := dst.FreeSegment(seg); !errors.Is(err, ErrNoSegment) {
		t.Errorf("double free = %v, want ErrNoSegment", err)
	}
	if _, err := dst.SegmentRemaining(seg); !errors.Is(err, ErrNoSegment) {
		t.Errorf("SegmentRemaining after free = %v", err)
	}
}

func TestSegmentUnknownAndOverrun(t *testing.T) {
	src, dst, _ := pair(t, network.CM5Config{})

	// Packet for a segment that was never allocated.
	if err := src.SendXfer(1, 99, 0, []network.Word{1}, cost.Base, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Poll(0); !errors.Is(err, ErrNoSegment) {
		t.Errorf("Poll = %v, want ErrNoSegment", err)
	}

	// Packet overrunning the segment buffer.
	buf := make([]network.Word, 2)
	seg, err := dst.AllocSegment(buf, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SendXfer(1, seg, 1, []network.Word{1, 2, 3}, cost.Base, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Poll(0); !errors.Is(err, ErrSegmentOverrun) {
		t.Errorf("Poll = %v, want ErrSegmentOverrun", err)
	}
}

func TestAllocSegmentValidates(t *testing.T) {
	_, dst, _ := pair(t, network.CM5Config{})
	if _, err := dst.AllocSegment(make([]network.Word, 2), 4, nil, nil); err == nil {
		t.Error("accepted expectation beyond buffer")
	}
	if _, err := dst.AllocSegment(nil, -1, nil, nil); err == nil {
		t.Error("accepted negative expectation")
	}
}

func TestSegmentIDsRecycle(t *testing.T) {
	_, dst, _ := pair(t, network.CM5Config{})
	a, err := dst.AllocSegment(make([]network.Word, 4), 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dst.AllocSegment(make([]network.Word, 4), 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("distinct segments share id %d", a)
	}
	if err := dst.FreeSegment(a); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.AllocSegment(make([]network.Word, 4), 4, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXferHeadPacking(t *testing.T) {
	head, err := XferHead(3, 1020)
	if err != nil {
		t.Fatal(err)
	}
	if head>>16 != 3 || head&0xffff != 1020 {
		t.Errorf("head = %#x", head)
	}
	if _, err := XferHead(0, 1<<16); err == nil {
		t.Error("accepted 16-bit offset overflow")
	}
	if _, err := XferHead(0, -4); err == nil {
		t.Error("accepted negative offset")
	}
}

func TestPollBudget(t *testing.T) {
	src, dst, _ := pair(t, network.CM5Config{})
	dst.Register(1, func(int, []network.Word) {})
	for i := 0; i < 5; i++ {
		if err := src.AM4(1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := dst.Poll(2); err != nil || n != 2 {
		t.Fatalf("Poll(2) = %d, %v", n, err)
	}
	if n, err := dst.Poll(0); err != nil || n != 3 {
		t.Fatalf("Poll(0) = %d, %v", n, err)
	}
}

func TestHandlersCanReplyThroughSameEndpoint(t *testing.T) {
	// A request/reply ping-pong: the destination's handler sends back,
	// exercising reentrant endpoint use from inside a handler.
	src, dst, _ := pair(t, network.CM5Config{})
	gotReply := false
	src.Register(2, func(s int, args []network.Word) {
		if s == 1 && len(args) == 1 && args[0] == 99 {
			gotReply = true
		}
	})
	dst.Register(1, func(s int, args []network.Word) {
		if err := dst.AM4(s, 2, 99); err != nil {
			t.Errorf("reply failed: %v", err)
		}
	})
	if err := src.AM4(1, 1, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Poll(0); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Poll(0); err != nil {
		t.Fatal(err)
	}
	if !gotReply {
		t.Error("reply never arrived")
	}
}

func TestCorruptPacketsNeverReachHandlers(t *testing.T) {
	src, dst, _ := pair(t, network.CM5Config{
		Faults: &network.EveryNth{N: 1, What: network.Corrupt},
	})
	dst.Register(1, func(int, []network.Word) {
		t.Error("handler ran for a corrupt packet")
	})
	if err := src.AM4(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if n, err := dst.Poll(0); err != nil || n != 0 {
		t.Errorf("Poll = %d, %v", n, err)
	}
}

func TestRegisterTagSink(t *testing.T) {
	src, dst, _ := pair(t, network.CM5Config{})
	var gotHead network.Word
	var gotData []network.Word
	if err := dst.RegisterTag(5, func(s int, head network.Word, data []network.Word) error {
		gotHead = head
		gotData = data
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := src.Send(1, 5, 42, []network.Word{7, 8}, cost.Base, nil); err != nil {
		t.Fatal(err)
	}
	if n, err := dst.Poll(0); err != nil || n != 1 {
		t.Fatalf("Poll = %d, %v", n, err)
	}
	if gotHead != 42 || len(gotData) != 2 || gotData[1] != 8 {
		t.Errorf("sink saw head=%d data=%v", gotHead, gotData)
	}
}

func TestRegisterTagRejectsReserved(t *testing.T) {
	_, dst, _ := pair(t, network.CM5Config{})
	if err := dst.RegisterTag(TagAM, nil); err == nil {
		t.Error("RegisterTag accepted TagAM")
	}
	if err := dst.RegisterTag(TagXfer, nil); err == nil {
		t.Error("RegisterTag accepted TagXfer")
	}
}

func TestTagSinkErrorsPropagate(t *testing.T) {
	src, dst, _ := pair(t, network.CM5Config{})
	boom := errors.New("sink boom")
	if err := dst.RegisterTag(6, func(int, network.Word, []network.Word) error {
		return boom
	}); err != nil {
		t.Fatal(err)
	}
	if err := src.Send(1, 6, 0, nil, cost.Base, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Poll(0); !errors.Is(err, boom) {
		t.Errorf("Poll = %v, want sink error", err)
	}
}

func TestSendAMAndReplyAM4(t *testing.T) {
	src, dst, _ := pair(t, network.CM5Config{})
	var got []network.Word
	dst.Register(3, func(_ int, args []network.Word) { got = args })

	// SendAM with an explicit attribution.
	if err := src.SendAM(1, 3, cost.BufferMgmt, src.Node().Sched.AllocRequestSend, 9); err != nil {
		t.Fatal(err)
	}
	if n, err := dst.Poll(0); err != nil || n != 1 {
		t.Fatalf("Poll = %d, %v", n, err)
	}
	if len(got) != 1 || got[0] != 9 {
		t.Errorf("args = %v", got)
	}
	if c := src.Node().Gauge.Cell(cost.Source, cost.BufferMgmt).Total(); c != 23 {
		t.Errorf("buffer mgmt charge = %d, want 23", c)
	}

	// ReplyAM4 without a reply network falls back to the primary NI and
	// charges Table 1.
	if err := dst.ReplyAM4(0, 3, 1, 2); err != nil {
		t.Fatal(err)
	}
	src.Register(3, func(_ int, args []network.Word) { got = args })
	if n, err := src.Poll(0); err != nil || n != 1 {
		t.Fatalf("reply Poll = %d, %v", n, err)
	}
	if len(got) != 2 || got[1] != 2 {
		t.Errorf("reply args = %v", got)
	}
	if c := dst.Node().Gauge.Cell(cost.Destination, cost.Base).Total(); c != 20 {
		t.Errorf("reply charge = %d, want 20", c)
	}
	// Oversize replies are refused.
	if err := dst.ReplyAM4(0, 3, 1, 2, 3, 4, 5); err == nil {
		t.Error("oversize ReplyAM4 accepted")
	}
}

func TestDualNetworkPollDrainsBothNIs(t *testing.T) {
	req := network.MustCM5Net(network.CM5Config{Nodes: 2})
	rep := network.MustCM5Net(network.CM5Config{Nodes: 2})
	m, err := machine.NewDual(req, rep, cost.MustPaperSchedule(4))
	if err != nil {
		t.Fatal(err)
	}
	a := NewEndpoint(m.Node(0))
	b := NewEndpoint(m.Node(1))
	var seen []network.Word
	a.Register(1, func(_ int, args []network.Word) { seen = append(seen, args[0]) })

	// One message on each network toward node 0.
	if err := b.AM4(0, 1, 100); err != nil { // request network
		t.Fatal(err)
	}
	if err := b.ReplyAM4(0, 1, 200); err != nil { // reply network
		t.Fatal(err)
	}
	if n, err := a.Poll(0); err != nil || n != 2 {
		t.Fatalf("Poll = %d, %v", n, err)
	}
	if len(seen) != 2 {
		t.Fatalf("seen = %v", seen)
	}
}

// Arrivals are counted once per offset up to the last offset the 16-bit
// head field carries: a duplicate there overwrites its words without
// counting them again.
func TestSegmentDuplicateOffsetAtFieldLimit(t *testing.T) {
	src, dst, _ := pair(t, network.CM5Config{})
	const last = maxOffset - 1
	buf := make([]network.Word, maxOffset)
	var packets, doneCalls int
	seg, err := dst.AllocSegment(buf, 2, func(off, words int) { packets++ }, func() { doneCalls++ })
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []network.Word{7, 8} {
		if err := src.SendXfer(1, seg, last, []network.Word{w}, cost.Base, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dst.Poll(0); err != nil {
		t.Fatal(err)
	}
	if rem, _ := dst.SegmentRemaining(seg); rem != 1 || packets != 2 || doneCalls != 0 || buf[last] != 8 {
		t.Fatalf("after a duplicate at offset %d: remaining %d, packets %d, done %d, word %d",
			last, rem, packets, doneCalls, buf[last])
	}
	if err := src.SendXfer(1, seg, 0, []network.Word{1}, cost.Base, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Poll(0); err != nil {
		t.Fatal(err)
	}
	if rem, _ := dst.SegmentRemaining(seg); rem != 0 || doneCalls != 1 {
		t.Errorf("after offset 0: remaining %d, done %d", rem, doneCalls)
	}
	if err := src.SendXfer(1, seg, maxOffset, []network.Word{1}, cost.Base, nil); err == nil {
		t.Error("an offset past the 16-bit field was sent")
	}

	// An empty packet may sit just past the last word, here of a buffer
	// whose length is a multiple of the bitset's word.
	seg, err = dst.AllocSegment(make([]network.Word, 64), 64, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := src.SendXfer(1, seg, 64, nil, cost.Base, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dst.Poll(0); err != nil {
		t.Fatal(err)
	}
	if rem, _ := dst.SegmentRemaining(seg); rem != 64 {
		t.Errorf("empty packets at the end changed remaining to %d", rem)
	}
}
