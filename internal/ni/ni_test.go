package ni

import (
	"errors"
	"testing"

	"msglayer/internal/network"
)

func newPair(t *testing.T) (*NI, *NI, *network.CM5Net) {
	t.Helper()
	net := network.MustCM5Net(network.CM5Config{Nodes: 2})
	return MustNew(0, net), MustNew(1, net), net
}

func TestNewRejectsBadNode(t *testing.T) {
	net := network.MustCM5Net(network.CM5Config{Nodes: 2})
	if _, err := New(2, net); err == nil {
		t.Error("accepted out-of-range node")
	}
	if _, err := New(-1, net); err == nil {
		t.Error("accepted negative node")
	}
}

func TestMustNewPanics(t *testing.T) {
	net := network.MustCM5Net(network.CM5Config{Nodes: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(9, net)
}

func TestSendReceiveRoundTrip(t *testing.T) {
	src, dst, _ := newPair(t)

	src.StageDest(1, 3)
	src.StageHead(77)
	src.StageData(10, 20, 30, 40)
	if err := src.Push(); err != nil {
		t.Fatal(err)
	}
	if !src.SendOK() {
		t.Error("SendOK false after successful push")
	}

	if !dst.RecvReady() {
		t.Fatal("RecvReady false with a waiting packet")
	}
	from, tag, head := dst.ReadMeta()
	if from != 0 || tag != 3 || head != 77 {
		t.Errorf("meta = (%d,%d,%d)", from, tag, head)
	}
	data := dst.ReadData()
	if len(data) != 4 || data[0] != 10 || data[3] != 40 {
		t.Errorf("data = %v", data)
	}
	if dst.RecvReady() {
		t.Error("RecvReady true after consuming the only packet")
	}
}

func TestPushWithoutStagingFails(t *testing.T) {
	src, _, _ := newPair(t)
	if err := src.Push(); !errors.Is(err, ErrNothingStaged) {
		t.Errorf("Push = %v, want ErrNothingStaged", err)
	}
}

func TestPushBackpressureKeepsPacketStaged(t *testing.T) {
	net := network.MustCM5Net(network.CM5Config{Nodes: 2, Capacity: 1})
	src := MustNew(0, net)
	dst := MustNew(1, net)

	src.StageDest(1, 0)
	if err := src.Push(); err != nil {
		t.Fatal(err)
	}
	// Second packet hits the capacity limit.
	src.StageDest(1, 0)
	src.StageHead(5)
	if err := src.Push(); !errors.Is(err, network.ErrBackpressure) {
		t.Fatalf("Push = %v, want backpressure", err)
	}
	if src.SendOK() {
		t.Error("SendOK true while a packet is stuck in staging")
	}
	// Drain and retry the same staged packet.
	if !dst.RecvReady() {
		t.Fatal("first packet missing")
	}
	dst.Discard()
	if err := src.Push(); err != nil {
		t.Fatalf("retry push = %v", err)
	}
	if !dst.RecvReady() {
		t.Fatal("retried packet missing")
	}
	_, _, head := dst.ReadMeta()
	if head != 5 {
		t.Errorf("head = %d, want 5", head)
	}
}

func TestCorruptPacketsDetectedAndDiscarded(t *testing.T) {
	net := network.MustCM5Net(network.CM5Config{
		Nodes:  2,
		Faults: &network.EveryNth{N: 2, What: network.Corrupt},
	})
	src := MustNew(0, net)
	dst := MustNew(1, net)

	for i := 0; i < 4; i++ {
		src.StageDest(1, 0)
		src.StageHead(network.Word(i))
		if err := src.Push(); err != nil {
			t.Fatal(err)
		}
	}
	var got []network.Word
	for dst.RecvReady() {
		_, _, head := dst.ReadMeta()
		got = append(got, head)
		dst.Discard()
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("delivered heads = %v, want [0 2]", got)
	}
	if dst.Accesses().CRCErrors != 2 {
		t.Errorf("CRCErrors = %d, want 2", dst.Accesses().CRCErrors)
	}
}

func TestAccessCounting(t *testing.T) {
	src, dst, _ := newPair(t)

	src.StageDest(1, 0)       // 1 write
	src.StageHead(0)          // 1 write
	src.StageData(1, 2, 3, 4) // 2 writes (double-word)
	if err := src.Push(); err != nil {
		t.Fatal(err)
	}
	src.SendOK() // 1 status read
	a := src.Accesses()
	if a.Writes != 4 || a.StatusReads != 1 || a.Reads != 0 {
		t.Errorf("source accesses = %+v", a)
	}

	dst.RecvReady() // 1 status read
	dst.ReadMeta()  // 1 read
	dst.ReadData()  // 2 reads
	a = dst.Accesses()
	if a.StatusReads != 1 || a.Reads != 3 {
		t.Errorf("destination accesses = %+v", a)
	}
}

func TestOddWordCountsRoundUp(t *testing.T) {
	src, dst, _ := newPair(t)
	src.StageDest(1, 0)
	src.StageData(1, 2, 3) // 3 words = 2 double-word stores
	if err := src.Push(); err != nil {
		t.Fatal(err)
	}
	if src.Accesses().Writes != 3 { // dest + 2 data stores
		t.Errorf("writes = %d, want 3", src.Accesses().Writes)
	}
	dst.RecvReady()
	if got := dst.ReadData(); len(got) != 3 {
		t.Errorf("data = %v", got)
	}
	if dst.Accesses().Reads != 2 {
		t.Errorf("reads = %d, want 2", dst.Accesses().Reads)
	}
}

func TestReadWithoutPacketPanics(t *testing.T) {
	_, dst, _ := newPair(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	dst.ReadMeta()
}

func TestReadDataWithoutPacketPanics(t *testing.T) {
	_, dst, _ := newPair(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	dst.ReadData()
}

func TestNodeAccessor(t *testing.T) {
	src, dst, _ := newPair(t)
	if src.Node() != 0 || dst.Node() != 1 {
		t.Errorf("Node() = %d, %d", src.Node(), dst.Node())
	}
}

func TestWorksOverCRNet(t *testing.T) {
	net := network.MustCRNet(network.CRConfig{Nodes: 2})
	src := MustNew(0, net)
	dst := MustNew(1, net)
	for i := 0; i < 3; i++ {
		src.StageDest(1, 1)
		src.StageHead(network.Word(i))
		if err := src.Push(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if !dst.RecvReady() {
			t.Fatalf("packet %d missing", i)
		}
		_, _, head := dst.ReadMeta()
		if head != network.Word(i) {
			t.Errorf("packet %d head = %d (CR must preserve order)", i, head)
		}
		dst.Discard()
	}
}

func TestPushRejectedKeepsStaged(t *testing.T) {
	net := network.MustCRNet(network.CRConfig{Nodes: 2})
	if err := net.SetAcceptor(1, func(network.Packet) bool { return false }); err != nil {
		t.Fatal(err)
	}
	src := MustNew(0, net)
	src.StageDest(1, 0)
	if err := src.Push(); !errors.Is(err, network.ErrRejected) {
		t.Fatalf("Push = %v, want ErrRejected", err)
	}
	// Acceptance opens up; the staged packet retries successfully.
	if err := net.SetAcceptor(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := src.Push(); err != nil {
		t.Fatalf("retry = %v", err)
	}
}

// Staging and pushing a packet allocates nothing once warm: the staging
// buffer is reused, since Inject copies the payload. AllocsPerRun reports
// whole allocations per run, so the substrate's payload slab refill, one
// per 64 four-word packets here, averages to zero, while any per-packet
// allocation on the send or receive path would show as one.
func TestStagePushAllocatesNothing(t *testing.T) {
	src, dst, _ := newPair(t)
	words := []network.Word{10, 20, 30, 40}
	allocs := testing.AllocsPerRun(1000, func() {
		src.StageDest(1, 3)
		src.StageHead(77)
		src.StageData(words...)
		if err := src.Push(); err != nil {
			t.Fatal(err)
		}
		if !dst.RecvReady() {
			t.Fatal("packet lost")
		}
		if data := dst.ReadData(); len(data) != 4 || data[3] != 40 {
			t.Fatalf("data = %v", data)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per staged packet, want 0", allocs)
	}
}

// Reusing the staging buffer never aliases a packet already in flight:
// each delivered payload is the one staged for it.
func TestStagingReuseKeepsPayloadsApart(t *testing.T) {
	src, dst, _ := newPair(t)
	for i := 0; i < 3; i++ {
		w := network.Word(10 * i)
		src.StageDest(1, 0)
		src.StageData(w, w+1)
		if err := src.Push(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if !dst.RecvReady() {
			t.Fatal("packet lost")
		}
		w := network.Word(10 * i)
		if data := dst.ReadData(); len(data) != 2 || data[0] != w || data[1] != w+1 {
			t.Errorf("packet %d payload = %v", i, data)
		}
	}
}

// A traced packet carries a record of the NI's chunk; a backpressured push
// does not use one up, so the retried packet takes the record the refused
// push was stamped into, and the next packet the one after it.
func TestBackpressuredPushKeepsTraceRecord(t *testing.T) {
	net := network.MustCM5Net(network.CM5Config{Nodes: 2, Capacity: 1})
	src, dst := MustNew(0, net), MustNew(1, net)
	push := func(msg uint64) error {
		src.StageDest(1, 0)
		src.StageTrace(msg, msg+10, msg+20)
		return src.Push()
	}
	recv := func(want uint64) {
		t.Helper()
		if !dst.RecvReady() {
			t.Fatal("packet lost")
		}
		if msg, span, pkt := dst.RecvTrace(); msg != want || span != want+10 || pkt != want+20 {
			t.Errorf("RecvTrace = %d, %d, %d, want %d, %d, %d", msg, span, pkt, want, want+10, want+20)
		}
		dst.Discard()
	}
	if err := push(1); err != nil {
		t.Fatal(err)
	}
	if err := push(2); !errors.Is(err, network.ErrBackpressure) {
		t.Fatalf("Push = %v, want backpressure", err)
	}
	if len(src.traces) != traceChunk-1 {
		t.Errorf("a refused push used up a record: %d of %d left", len(src.traces), traceChunk)
	}
	recv(1)
	if err := src.Push(); err != nil {
		t.Fatalf("retry push = %v", err)
	}
	recv(2)
	if err := push(3); err != nil {
		t.Fatal(err)
	}
	recv(3)
	if len(src.traces) != traceChunk-3 {
		t.Errorf("three traced packets used %d records", traceChunk-len(src.traces))
	}
	// An untraced packet carries no record and uses none.
	src.StageDest(1, 0)
	if err := src.Push(); err != nil {
		t.Fatal(err)
	}
	if !dst.RecvReady() {
		t.Fatal("packet lost")
	}
	if msg, span, pkt := dst.RecvTrace(); msg != 0 || span != 0 || pkt != 0 {
		t.Errorf("untraced RecvTrace = %d, %d, %d", msg, span, pkt)
	}
	if len(src.traces) != traceChunk-3 {
		t.Errorf("an untraced packet used a record")
	}
}

// Tracing a multi-packet transfer costs at most one allocation per chunk
// of packets over the untraced transfer: the identity records come from
// the NI's chunk, not one allocation each.
func TestTracedTransferAllocsPerChunk(t *testing.T) {
	const packets = 4 * traceChunk
	words := []network.Word{10, 20, 30, 40}
	transfer := func(traced bool) float64 {
		src, dst, _ := newPair(t)
		return testing.AllocsPerRun(20, func() {
			for i := uint64(1); i <= packets; i++ {
				src.StageDest(1, 3)
				src.StageData(words...)
				if traced {
					src.StageTrace(1, 2, i)
				}
				if err := src.Push(); err != nil {
					t.Fatal(err)
				}
			}
			for i := uint64(1); i <= packets; i++ {
				if !dst.RecvReady() {
					t.Fatal("packet lost")
				}
				if _, _, pkt := dst.RecvTrace(); traced && pkt != i {
					t.Fatalf("packet %d arrived as %d", i, pkt)
				}
				dst.Discard()
			}
		})
	}
	untraced, traced := transfer(false), transfer(true)
	if extra := traced - untraced; extra > packets/traceChunk {
		t.Errorf("tracing %d packets made %.0f more allocations, want <= %d", packets, extra, packets/traceChunk)
	}
}
