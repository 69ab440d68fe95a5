package cost

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// finiteExpect returns the Appendix A finite-sequence cell values for p
// packets of 4 words, computed from the paper's linear decomposition.
func finiteExpect(p uint64) map[Role]map[Feature]Vec {
	return map[Role]map[Feature]Vec{
		Source: {
			Base:       V(2, 1, 0).Add(V(15, 2, 5).Scale(p)),
			BufferMgmt: V(36, 1, 10),
			InOrder:    V(2, 0, 0).Scale(p),
			FaultTol:   V(22, 0, 5),
		},
		Destination: {
			Base:       V(14, 3, 1).Add(V(12, 2, 4).Scale(p)),
			BufferMgmt: V(79, 12, 10),
			InOrder:    V(1, 0, 0).Add(V(3, 0, 0).Scale(p)),
			FaultTol:   V(14, 1, 5),
		},
	}
}

// indefiniteExpect returns the Appendix A indefinite-sequence cell values
// for p packets of 4 words with half arriving out of order.
func indefiniteExpect(p uint64) map[Role]map[Feature]Vec {
	half := p / 2
	return map[Role]map[Feature]Vec{
		Source: {
			Base:     V(14, 1, 5).Scale(p),
			InOrder:  V(2, 3, 0).Scale(p),
			FaultTol: V(22, 2, 5).Scale(p),
		},
		Destination: {
			Base: V(12, 0, 1).Add(V(10, 0, 4).Scale(p)),
			InOrder: V(5, 0, 0).Scale(p - half).
				Add(V(20, 13, 0).Scale(half)).
				Add(V(10, 10, 0).Scale(half)),
			FaultTol: V(14, 1, 5).Scale(p),
		},
	}
}

func TestPaperScheduleValidates(t *testing.T) {
	s := MustPaperSchedule(4)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperScheduleRejectsBadPacketSizes(t *testing.T) {
	for _, n := range []int{0, -2, 3, 7} {
		if _, err := NewPaperSchedule(n); err == nil {
			t.Errorf("NewPaperSchedule(%d) accepted invalid size", n)
		}
	}
}

func TestMustPaperSchedulePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustPaperSchedule(3)
}

// Table 1: single-packet delivery costs 20 instructions at the source and
// 27 at the destination, with the published subcategory breakdown.
func TestTable1Anchors(t *testing.T) {
	s := MustPaperSchedule(4)
	if got := s.SendSingle.Total(); got != 20 {
		t.Errorf("send single = %d, want 20", got)
	}
	if got := s.RecvSingle.Total(); got != 27 {
		t.Errorf("recv single = %d, want 27", got)
	}

	sub := func(items Items, sub Sub) uint64 {
		var n uint64
		for _, it := range items {
			if it.Sub == sub {
				n += it.N
			}
		}
		return n
	}
	srcWant := map[Sub]uint64{
		SubCallRet: 3, SubNISetup: 5, SubNIWrite: 2,
		SubNIStatus: 7, SubControlFlow: 3,
	}
	for su, want := range srcWant {
		if got := sub(s.SendSingle, su); got != want {
			t.Errorf("source %s = %d, want %d", su, got, want)
		}
	}
	dstWant := map[Sub]uint64{
		SubCallRet: 10, SubNIRead: 3, SubNIStatus: 12, SubControlFlow: 2,
	}
	for su, want := range dstWant {
		if got := sub(s.RecvSingle, su); got != want {
			t.Errorf("destination %s = %d, want %d", su, got, want)
		}
	}
}

// The finite-sequence schedule bundles reproduce Appendix A exactly at both
// published anchors (16 and 1024 words, i.e. 4 and 256 packets of 4 words).
func TestFiniteSequenceAppendixAAnchors(t *testing.T) {
	s := MustPaperSchedule(4)
	for _, p := range []uint64{4, 256} {
		want := finiteExpect(p)

		gotSrcBase := s.XferSendFixed.Vec().Add(s.XferSendPacket.Vec().Scale(p))
		if gotSrcBase != want[Source][Base] {
			t.Errorf("p=%d src base = %v, want %v", p, gotSrcBase, want[Source][Base])
		}
		gotDstBase := s.XferRecvFixed.Vec().Add(s.XferRecvPacket.Vec().Scale(p))
		if gotDstBase != want[Destination][Base] {
			t.Errorf("p=%d dst base = %v, want %v", p, gotDstBase, want[Destination][Base])
		}

		gotSrcBuf := s.AllocRequestSend.Vec().Add(s.AllocReplyRecv.Vec())
		if gotSrcBuf != want[Source][BufferMgmt] {
			t.Errorf("src buffer mgmt = %v, want %v", gotSrcBuf, want[Source][BufferMgmt])
		}
		gotDstBuf := s.AllocRequestRecv.Vec().
			Add(s.SegmentAllocate.Vec()).
			Add(s.AllocReplySend.Vec()).
			Add(s.SegmentDeallocate.Vec())
		if gotDstBuf != want[Destination][BufferMgmt] {
			t.Errorf("dst buffer mgmt = %v, want %v", gotDstBuf, want[Destination][BufferMgmt])
		}

		gotSrcOrd := s.OffsetPerPacket.Vec().Scale(p)
		if gotSrcOrd != want[Source][InOrder] {
			t.Errorf("p=%d src in-order = %v, want %v", p, gotSrcOrd, want[Source][InOrder])
		}
		gotDstOrd := s.OffsetTrackFixed.Vec().Add(s.OffsetTrackPacket.Vec().Scale(p))
		if gotDstOrd != want[Destination][InOrder] {
			t.Errorf("p=%d dst in-order = %v, want %v", p, gotDstOrd, want[Destination][InOrder])
		}

		if got := s.XferAckRecv.Vec(); got != want[Source][FaultTol] {
			t.Errorf("src fault tol = %v, want %v", got, want[Source][FaultTol])
		}
		if got := s.XferAckSend.Vec(); got != want[Destination][FaultTol] {
			t.Errorf("dst fault tol = %v, want %v", got, want[Destination][FaultTol])
		}
	}

	// Grand totals from Table 2 at 1024 words: 6221 source, 5516
	// destination, 11737 total.
	want := finiteExpect(256)
	var src, dst uint64
	for f, v := range want[Source] {
		_ = f
		src += v.Total()
	}
	for _, v := range want[Destination] {
		dst += v.Total()
	}
	if src != 6221 || dst != 5516 || src+dst != 11737 {
		t.Errorf("1024w finite totals = %d/%d/%d, want 6221/5516/11737", src, dst, src+dst)
	}
}

// The indefinite-sequence schedule bundles reproduce Appendix A exactly at
// both published anchors, including the Table 2 grand totals (481 at 16
// words, 29965 at 1024 words).
func TestIndefiniteSequenceAppendixAAnchors(t *testing.T) {
	s := MustPaperSchedule(4)
	for _, p := range []uint64{4, 256} {
		half := p / 2
		want := indefiniteExpect(p)

		gotSrcBase := s.StreamSendPacket.Vec().Scale(p)
		if gotSrcBase != want[Source][Base] {
			t.Errorf("p=%d src base = %v, want %v", p, gotSrcBase, want[Source][Base])
		}
		gotDstBase := s.StreamRecvFixed.Vec().Add(s.StreamRecvPacket.Vec().Scale(p))
		if gotDstBase != want[Destination][Base] {
			t.Errorf("p=%d dst base = %v, want %v", p, gotDstBase, want[Destination][Base])
		}

		gotSrcOrd := s.SeqPerPacket.Vec().Scale(p)
		if gotSrcOrd != want[Source][InOrder] {
			t.Errorf("p=%d src in-order = %v, want %v", p, gotSrcOrd, want[Source][InOrder])
		}
		gotDstOrd := s.InOrderArrival.Vec().Scale(p - half).
			Add(s.OutOfOrderArrival.Vec().Scale(half)).
			Add(s.DrainBuffered.Vec().Scale(half))
		if gotDstOrd != want[Destination][InOrder] {
			t.Errorf("p=%d dst in-order = %v, want %v", p, gotDstOrd, want[Destination][InOrder])
		}

		gotSrcFT := s.SourceBufferPacket.Vec().Add(s.StreamAckRecv.Vec()).Scale(p)
		if gotSrcFT != want[Source][FaultTol] {
			t.Errorf("p=%d src fault tol = %v, want %v", p, gotSrcFT, want[Source][FaultTol])
		}
		gotDstFT := s.StreamAckSend.Vec().Scale(p)
		if gotDstFT != want[Destination][FaultTol] {
			t.Errorf("p=%d dst fault tol = %v, want %v", p, gotDstFT, want[Destination][FaultTol])
		}
	}

	for _, tc := range []struct {
		p               uint64
		src, dst, total uint64
	}{
		{4, 216, 265, 481},
		{256, 13824, 16141, 29965},
	} {
		want := indefiniteExpect(tc.p)
		var src, dst uint64
		for _, v := range want[Source] {
			src += v.Total()
		}
		for _, v := range want[Destination] {
			dst += v.Total()
		}
		if src != tc.src || dst != tc.dst || src+dst != tc.total {
			t.Errorf("p=%d indefinite totals = %d/%d/%d, want %d/%d/%d",
				tc.p, src, dst, src+dst, tc.src, tc.dst, tc.total)
		}
	}
}

// The schedule is linear in packet count by construction; per-packet bundles
// must not depend on anything but n. This property pins the Figure 8
// generalization: at any even n, data-movement terms scale as n/2 while
// register coefficients stay fixed.
func TestSchedulePacketSizeGeneralization(t *testing.T) {
	base := MustPaperSchedule(4)
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		s := MustPaperSchedule(n)
		h := uint64(n) / 2

		if got := s.XferSendPacket.Vec(); got != V(15, h, h+3) {
			t.Errorf("n=%d xfer send pkt = %v", n, got)
		}
		if got := s.XferRecvPacket.Vec(); got != V(12, h, h+2) {
			t.Errorf("n=%d xfer recv pkt = %v", n, got)
		}
		if got := s.StreamSendPacket.Vec(); got != V(14, 1, h+3) {
			t.Errorf("n=%d stream send pkt = %v", n, got)
		}
		if got := s.StreamRecvPacket.Vec(); got != V(10, 0, h+2) {
			t.Errorf("n=%d stream recv pkt = %v", n, got)
		}
		// Size-independent bundles are identical at every n.
		if s.SendSingle.Vec() != base.SendSingle.Vec() ||
			s.XferAckSend.Vec() != base.XferAckSend.Vec() ||
			s.SegmentAllocate.Vec() != base.SegmentAllocate.Vec() {
			t.Errorf("n=%d size-independent bundle changed", n)
		}
	}
}

func TestScheduleLinearityProperty(t *testing.T) {
	s := MustPaperSchedule(4)
	// Cost of p packets equals p times the cost of one packet plus the
	// fixed part, for arbitrary p.
	prop := func(pRaw uint16) bool {
		p := uint64(pRaw%4096) + 1
		one := s.XferSendFixed.Vec().Add(s.XferSendPacket.Vec())
		many := s.XferSendFixed.Vec().Add(s.XferSendPacket.Vec().Scale(p))
		return many.Sub(s.XferSendFixed.Vec()) ==
			one.Sub(s.XferSendFixed.Vec()).Scale(p)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestWithImprovedNIShrinksOnlyDev(t *testing.T) {
	s := MustPaperSchedule(4)
	im := s.WithImprovedNI(2)
	if im.Name == s.Name {
		t.Errorf("improved schedule should be renamed, got %q", im.Name)
	}
	orig := s.XferSendPacket.Vec()
	got := im.XferSendPacket.Vec()
	if got.Reg != orig.Reg || got.Mem != orig.Mem {
		t.Errorf("reg/mem changed: %v vs %v", got, orig)
	}
	if got.Dev != (orig.Dev+1)/2 {
		t.Errorf("dev = %d, want %d", got.Dev, (orig.Dev+1)/2)
	}
	// The original schedule is untouched.
	if s.XferSendPacket.Vec() != orig {
		t.Errorf("original schedule mutated")
	}
	// Factor zero is treated as one (no change).
	same := s.WithImprovedNI(0)
	if same.XferSendPacket.Vec() != orig {
		t.Errorf("factor 0 altered dev counts")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s := MustPaperSchedule(4).Clone()
	s.SendSingle = Items{{Reg, SubCallRet, 1}}
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted corrupted single-packet bundle")
	}

	s2 := MustPaperSchedule(4).Clone()
	s2.PacketWords = 3
	if err := s2.Validate(); err == nil {
		t.Error("Validate accepted odd packet size")
	}
}

func TestWithInterruptReceptionAddsTrapCost(t *testing.T) {
	s := MustPaperSchedule(4)
	in := s.WithInterruptReception(30)
	if in.Name == s.Name {
		t.Error("interrupt schedule should be renamed")
	}
	// Every reception bundle gains exactly 30 register instructions.
	if got := in.RecvSingle.Total(); got != s.RecvSingle.Total()+30 {
		t.Errorf("RecvSingle = %d, want %d", got, s.RecvSingle.Total()+30)
	}
	if got := in.StreamRecvPacket.Vec(); got != s.StreamRecvPacket.Vec().Add(V(30, 0, 0)) {
		t.Errorf("StreamRecvPacket = %v", got)
	}
	// Send-side bundles are untouched.
	if in.SendSingle.Total() != s.SendSingle.Total() {
		t.Error("send bundle changed")
	}
	// The original schedule is unmodified.
	if s.RecvSingle.Total() != 27 {
		t.Error("original schedule mutated")
	}
	// Derived schedules still validate (anchors skipped by name).
	if err := in.Validate(); err != nil {
		t.Errorf("Validate = %v", err)
	}
}

func TestDescribeListsEveryBundle(t *testing.T) {
	s := MustPaperSchedule(4)
	out := s.Describe()
	for _, want := range []string{
		"cmam-paper", "SendSingle", "reg=17", "StreamAckRecv",
		"CRStreamRecv", "OutOfOrderArrival", "LastPacketDetect",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q", want)
		}
	}
	// Every bundle appears: 40 names plus the header line.
	if got := strings.Count(out, "\n"); got != 41 {
		t.Errorf("Describe has %d lines, want 41", got)
	}
}

// The memoized schedule is exactly the one an uncached build produces, for
// every packet size Figure 8 can ask for, and every call for a size returns
// that one shared schedule.
func TestMemoizedScheduleMatchesFreshBuild(t *testing.T) {
	for n := 2; n <= 128; n += 2 {
		got := MustPaperSchedule(n)
		if want := buildPaperSchedule(n); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: memoized schedule differs from a fresh build", n)
		}
		if again := MustPaperSchedule(n); again != got {
			t.Fatalf("n=%d: two calls returned different *Schedules", n)
		}
	}
}

// Whatever one caller does to a clone — assigning fields, appending to a
// bundle, deriving variants — the shared schedule stays pristine.
func TestScheduleCopiesAreIsolated(t *testing.T) {
	pristine := buildPaperSchedule(4)

	a := MustPaperSchedule(4).Clone()
	if a == MustPaperSchedule(4) || !reflect.DeepEqual(a, pristine) {
		t.Fatal("Clone returned the shared schedule or a different one")
	}
	a.Name = "edited"
	a.PacketWords = 6
	a.SendSingle = Items{{Reg, SubCallRet, 1}}
	for _, b := range a.bundles() {
		_ = append(*b, Item{Reg, SubBookkeeping, 1000})
	}
	_ = a.RecvSingle.Append(Items{{Mem, SubDataMove, 99}})
	_ = MustPaperSchedule(4).WithImprovedNI(4)
	_ = MustPaperSchedule(4).WithInterruptReception(30)

	if got := MustPaperSchedule(4); !reflect.DeepEqual(got, pristine) {
		t.Fatal("a caller's edits leaked into the shared schedule")
	}
	for _, b := range MustPaperSchedule(4).bundles() {
		if cap(*b) != len(*b) {
			t.Fatalf("shared bundle has spare capacity %d > %d: an append would write into it", cap(*b), len(*b))
		}
	}
}

// Concurrent first calls for the same and different packet sizes all get
// the one shared schedule per size, which they read while other goroutines
// edit clones of it (run under -race to check the memo).
func TestNewPaperScheduleConcurrent(t *testing.T) {
	// Empty the memo so every run of this test races on first fills.
	paperSchedules.Range(func(n, _ any) bool {
		paperSchedules.Delete(n)
		return true
	})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 200; n <= 260; n += 2 {
				s := MustPaperSchedule(n + 2*(g%2))
				if s.PacketWords != n+2*(g%2) || s.Validate() != nil {
					errs <- "bad schedule"
					return
				}
				s.Clone().Name = "mine" // each goroutine writes its own clone
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := MustPaperSchedule(200); got.Name != "cmam-paper" {
		t.Errorf("shared schedule renamed to %q", got.Name)
	}
}

func TestValidateAllocatesNothing(t *testing.T) {
	s := MustPaperSchedule(4)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate made %v allocations, want 0", allocs)
	}
}
