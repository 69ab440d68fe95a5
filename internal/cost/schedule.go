package cost

import (
	"fmt"
	"sync"
)

// Schedule is the calibration table mapping messaging-layer protocol events
// to instruction-charge bundles. It plays the role of the CMAM SPARC
// assembly the authors counted: every bundle below is derived from the
// paper's Table 1 (single-packet delivery) and the exact linear
// decomposition of Appendix A (fixed + per-packet costs for the multi-packet
// protocols; see DESIGN.md §5 for the derivation).
//
// A Schedule is constructed for a specific hardware packet payload size n
// (data words per packet; the CM-5 has n = 4). Register coefficients are
// per-packet constants; data-movement terms scale as n/2 double-word
// loads/stores, matching every n = 4 anchor in the paper. This
// parameterization is the Figure 8 generalization.
type Schedule struct {
	// Name identifies the schedule in reports ("cmam-paper", ...).
	Name string
	// PacketWords is n, the data words carried per hardware packet.
	PacketWords int

	// --- Single-packet delivery (Table 1) ---

	SendSingle Items // CMAM_4: inject one 4-word datagram
	RecvSingle Items // CMAM_request_poll + handle_left + got_left

	// --- Finite sequence, multi-packet delivery (Figure 3, Tables 2/3) ---

	XferSendFixed  Items // per-transfer source setup
	XferSendPacket Items // per-packet: load data, store to NI, confirm
	XferRecvFixed  Items // per-transfer destination setup
	XferRecvPacket Items // per-packet: poll, extract, store to buffer

	AllocRequestSend  Items // step 1: source sends allocation request
	AllocRequestRecv  Items // step 2a: destination receives request
	SegmentAllocate   Items // step 2b: associate segment with target buffer
	AllocReplySend    Items // step 3a: destination replies with segment id
	AllocReplyRecv    Items // step 3b: source receives the reply
	SegmentDeallocate Items // step 5: disassociate segment

	OffsetPerPacket     Items // in-order: source increments/stores offset
	OffsetTrackFixed    Items // in-order: destination per-transfer count setup
	OffsetTrackPacket   Items // in-order: destination offset extract + count
	XferAckSend         Items // step 6: destination acknowledges completion
	XferAckRecv         Items // step 6: source receives acknowledgement
	LastPacketDetect    Items // destination notices transfer completion
	SourceRetainMessage Items // source pins its buffer pending the ack

	// --- Indefinite sequence, multi-packet delivery (Figure 4, Tables 2/3) ---

	StreamSendPacket Items // per-packet injection
	StreamRecvFixed  Items // per-reception-burst poll entry
	StreamRecvPacket Items // per-packet extraction and handler dispatch

	SeqPerPacket       Items // in-order: source sequence-number bookkeeping
	InOrderArrival     Items // in-order: packet arrives in transmission order
	OutOfOrderArrival  Items // in-order: packet buffered in the reorder queue
	DrainBuffered      Items // in-order: buffered packet delivered in order
	SourceBufferPacket Items // fault tol.: copy packet for retransmission
	StreamAckSend      Items // fault tol.: destination acks (per packet/group)
	StreamAckRecv      Items // fault tol.: source processes ack, frees buffer
	Retransmit         Items // fault tol.: reload buffered copy, resend

	// --- High-level-feature (Compressionless Routing) layer (Section 4) ---

	CRXferSendFixed   Items // Figure 5 step 1 per-transfer setup
	CRXferSendPacket  Items // per-packet injection (identical base cost)
	CRXferRecvFixed   Items // per-transfer destination setup (fewer branches)
	CRXferRecvPacket  Items // per-packet reception (fewer branches)
	CRBufferRegister  Items // store buffer pointer in the transfer table
	CRLastPacket      Items // specialized last-packet handler
	CRStreamSend      Items // Figure 7: bare per-packet injection
	CRStreamRecvFixed Items // per-burst poll entry
	CRStreamRecv      Items // bare per-packet reception
	CRRetryBookkeep   Items // software cost of a rejected header retry
}

// paperSchedules memoizes one paper schedule per packet size. Each is
// shared by every caller and read-only; NewPaperSchedule hands out the
// memoized pointer itself.
var paperSchedules sync.Map // int -> *Schedule

// NewPaperSchedule returns the schedule calibrated to the paper's CM-5/CMAM
// measurements for hardware packets carrying n data words. n must be a
// positive even number (double-word loads/stores move two words at a time);
// the paper's CM-5 has n = 4 and Figure 8 sweeps n from 4 to 128.
//
// Every call for the same n returns the same Schedule, shared with every
// other caller: it is read-only. A caller that wants to edit a schedule
// edits a Clone, or derives one with WithImprovedNI or
// WithInterruptReception. NewPaperSchedule is safe for concurrent use.
func NewPaperSchedule(n int) (*Schedule, error) {
	if n <= 0 || n%2 != 0 {
		return nil, fmt.Errorf("cost: packet payload must be a positive even word count, got %d", n)
	}
	shared, ok := paperSchedules.Load(n)
	if !ok {
		shared, _ = paperSchedules.LoadOrStore(n, buildPaperSchedule(n))
	}
	return shared.(*Schedule), nil
}

// Clone returns a copy of the schedule whose fields the caller may
// reassign. The bundles are shared with the original and clipped to their
// length, so appending to one of the copy's bundles never affects the
// original; writing into a bundle's elements is not allowed.
func (s *Schedule) Clone() *Schedule {
	c := *s
	return &c
}

// buildPaperSchedule builds the paper schedule for a valid packet size n,
// with every bundle clipped to its length.
func buildPaperSchedule(n int) *Schedule {
	h := uint64(n) / 2 // double-word operations moving the payload

	s := &Schedule{
		Name:        "cmam-paper",
		PacketWords: n,

		// Table 1, source column: 3 call/return + 5 NI setup + 2 writes
		// to the NI + 7 status check (one dev load, six register tests)
		// + 3 control flow = 20 instructions.
		SendSingle: Items{
			{Reg, SubCallRet, 3},
			{Reg, SubNISetup, 5},
			{Dev, SubNIWrite, 2},
			{Dev, SubNIStatus, 1},
			{Reg, SubNIStatus, 6},
			{Reg, SubControlFlow, 3},
		},
		// Table 1, destination column: 10 call/return (three functions:
		// request_poll, handle_left, got_left) + 3 reads from the NI +
		// 12 status check (two dev loads, ten register tests) + 2
		// control flow = 27 instructions.
		RecvSingle: Items{
			{Reg, SubCallRet, 10},
			{Dev, SubNIRead, 3},
			{Dev, SubNIStatus, 2},
			{Reg, SubNIStatus, 10},
			{Reg, SubControlFlow, 2},
		},

		// Finite-sequence base cost, source: fixed (2 reg, 1 mem) +
		// per-packet (15 reg, n/2 mem, n/2+3 dev). At n = 4 and p = 256
		// this reproduces Appendix A exactly: 3842 reg, 513 mem, 1280 dev.
		XferSendFixed: Items{
			{Reg, SubNISetup, 2},
			{Mem, SubDataMove, 1},
		},
		XferSendPacket: Items{
			{Reg, SubNISetup, 4},
			{Reg, SubControlFlow, 4},
			{Reg, SubNIStatus, 7},
			{Dev, SubNIStatus, 1},
			{Mem, SubDataMove, h},    // load payload from memory
			{Dev, SubNIWrite, h + 2}, // payload + destination + offset
		},
		// Finite-sequence base cost, destination: fixed (14 reg, 3 mem,
		// 1 dev) + per-packet (12 reg, n/2 mem, n/2+2 dev); Appendix A:
		// 3086 reg, 515 mem, 1025 dev at n = 4, p = 256.
		XferRecvFixed: Items{
			{Reg, SubCallRet, 8},
			{Reg, SubNISetup, 4},
			{Reg, SubControlFlow, 2},
			{Mem, SubBookkeeping, 3},
			{Dev, SubNIStatus, 1},
		},
		XferRecvPacket: Items{
			{Reg, SubNIStatus, 5},
			{Dev, SubNIStatus, 1},
			{Dev, SubNIRead, h + 1}, // payload + offset word
			{Mem, SubDataMove, h},   // store payload into the segment
			{Reg, SubControlFlow, 4},
			{Reg, SubNISetup, 3},
		},

		// Buffer management: the Figure 3 round-trip handshake plus
		// segment (de)association. Appendix A fixed costs: source
		// (36 reg, 1 mem, 10 dev), destination (79 reg, 12 mem, 10 dev).
		AllocRequestSend: Items{
			{Reg, SubCallRet, 3},
			{Reg, SubNISetup, 5},
			{Dev, SubNIWrite, 3},
			{Dev, SubNIStatus, 2},
			{Reg, SubNIStatus, 5},
			{Reg, SubControlFlow, 3},
			{Mem, SubBookkeeping, 1},
			{Reg, SubBookkeeping, 1},
		},
		AllocReplyRecv: Items{
			{Reg, SubCallRet, 6},
			{Dev, SubNIRead, 3},
			{Dev, SubNIStatus, 2},
			{Reg, SubNIStatus, 7},
			{Reg, SubControlFlow, 3},
			{Reg, SubBookkeeping, 3},
		},
		AllocRequestRecv: Items{
			{Reg, SubCallRet, 8},
			{Dev, SubNIRead, 3},
			{Dev, SubNIStatus, 2},
			{Reg, SubNIStatus, 8},
			{Reg, SubControlFlow, 5},
			{Reg, SubBookkeeping, 4},
			{Mem, SubBookkeeping, 2},
		},
		SegmentAllocate: Items{
			{Reg, SubBookkeeping, 18},
			{Mem, SubBookkeeping, 5},
		},
		AllocReplySend: Items{
			{Reg, SubNISetup, 5},
			{Dev, SubNIWrite, 3},
			{Dev, SubNIStatus, 2},
			{Reg, SubNIStatus, 5},
			{Reg, SubControlFlow, 3},
			{Reg, SubCallRet, 3},
		},
		SegmentDeallocate: Items{
			{Reg, SubBookkeeping, 20},
			{Mem, SubBookkeeping, 5},
		},

		// In-order delivery via carried offsets: source (2 reg)/packet;
		// destination fixed 1 reg + (3 reg)/packet. Appendix A: 512 and
		// 769 reg at p = 256.
		OffsetPerPacket:   Items{{Reg, SubBookkeeping, 2}},
		OffsetTrackFixed:  Items{{Reg, SubBookkeeping, 1}},
		OffsetTrackPacket: Items{{Reg, SubBookkeeping, 3}},

		// Fault tolerance: one completion acknowledgement per transfer.
		// Appendix A fixed costs: source (22 reg, 5 dev), destination
		// (14 reg, 1 mem, 5 dev).
		XferAckSend: Items{
			{Reg, SubNISetup, 4},
			{Dev, SubNIWrite, 3},
			{Dev, SubNIStatus, 2},
			{Reg, SubNIStatus, 4},
			{Reg, SubCallRet, 3},
			{Reg, SubControlFlow, 3},
			{Mem, SubBookkeeping, 1},
		},
		XferAckRecv: Items{
			{Reg, SubCallRet, 6},
			{Dev, SubNIRead, 3},
			{Dev, SubNIStatus, 2},
			{Reg, SubNIStatus, 8},
			{Reg, SubControlFlow, 4},
			{Reg, SubBookkeeping, 4},
		},
		LastPacketDetect:    nil, // folded into OffsetTrackPacket's count test
		SourceRetainMessage: nil, // pinning the user buffer costs nothing extra

		// Indefinite-sequence base cost: source (14 reg, 1 mem,
		// n/2+3 dev)/packet (register-to-register: no per-word memory
		// traffic at the source beyond bookkeeping); destination fixed
		// (12 reg, 1 dev) + (10 reg, n/2+2 dev)/packet. Appendix A at
		// n = 4, p = 256: source 3584/256/1280, destination 2572/0/1025.
		StreamSendPacket: Items{
			{Reg, SubNISetup, 4},
			{Reg, SubControlFlow, 4},
			{Reg, SubNIStatus, 6},
			{Dev, SubNIStatus, 1},
			{Dev, SubNIWrite, h + 2}, // payload + destination + sequence
			{Mem, SubBookkeeping, 1},
		},
		StreamRecvFixed: Items{
			{Reg, SubCallRet, 6},
			{Dev, SubNIStatus, 1},
			{Reg, SubNIStatus, 4},
			{Reg, SubControlFlow, 2},
		},
		StreamRecvPacket: Items{
			{Reg, SubNIStatus, 4},
			{Dev, SubNIStatus, 1},
			{Dev, SubNIRead, h + 1}, // payload + sequence word
			{Reg, SubControlFlow, 3},
			{Reg, SubNISetup, 3},
		},

		// In-order delivery via sequence numbers: source (2 reg,
		// 3 mem)/packet. Destination: an in-order arrival costs 5 reg
		// (compare, advance); an out-of-order arrival costs
		// (20 reg, n/2+11 mem) to insert into the reorder queue, and
		// each buffered packet costs (10 reg, n/2+8 mem) when drained.
		// With the paper's assumption that half the packets arrive out
		// of order this averages (17.5 reg, 11.5 mem)/packet at n = 4,
		// reproducing Appendix A: 4480 reg, 2944 mem at p = 256.
		SeqPerPacket: Items{
			{Reg, SubBookkeeping, 2},
			{Mem, SubBookkeeping, 3},
		},
		InOrderArrival: Items{{Reg, SubBookkeeping, 5}},
		OutOfOrderArrival: Items{
			{Reg, SubBookkeeping, 20},
			{Mem, SubBookkeeping, 11},
			{Mem, SubDataMove, h}, // copy payload into the reorder buffer
		},
		DrainBuffered: Items{
			{Reg, SubBookkeeping, 10},
			{Mem, SubBookkeeping, 8},
			{Mem, SubDataMove, h}, // copy payload out of the reorder buffer
		},

		// Fault tolerance: source buffering (4 reg, n/2 mem)/packet plus
		// ack processing (18 reg, 5 dev)/ack at the source and an ack
		// send (14 reg, 1 mem, 5 dev)/ack at the destination. At group
		// size 1 the source pays (22 reg, 2 mem, 5 dev)/packet,
		// reproducing Appendix A: 5632/512/1280 and 3584/256/1280.
		SourceBufferPacket: Items{
			{Reg, SubBookkeeping, 4},
			{Mem, SubDataMove, h},
		},
		StreamAckRecv: Items{
			{Reg, SubNIStatus, 8},
			{Dev, SubNIStatus, 2},
			{Dev, SubNIRead, 3},
			{Reg, SubBookkeeping, 6},
			{Reg, SubControlFlow, 4},
		},
		StreamAckSend: Items{
			{Reg, SubNISetup, 4},
			{Dev, SubNIWrite, 3},
			{Dev, SubNIStatus, 2},
			{Reg, SubNIStatus, 4},
			{Reg, SubCallRet, 3},
			{Reg, SubControlFlow, 3},
			{Mem, SubBookkeeping, 1},
		},
		Retransmit: Items{
			{Reg, SubBookkeeping, 10},
			{Mem, SubDataMove, h}, // reload the buffered copy
			{Mem, SubBookkeeping, 2},
			{Dev, SubNIWrite, h + 2},
			{Dev, SubNIStatus, 1},
		},

		// Section 4: the same protocols atop Compressionless-Routing
		// features. Per Figure 6 the costs "correspond exactly to the
		// base costs of the CMAM implementations", with a slightly lower
		// destination cost from fewer branches in the reception code and
		// a specialized last-packet handler. Buffer management reduces
		// to storing the buffer pointer in a table.
		CRXferSendFixed: Items{
			{Reg, SubNISetup, 2},
			{Mem, SubDataMove, 1},
		},
		CRXferSendPacket: Items{
			{Reg, SubNISetup, 4},
			{Reg, SubControlFlow, 4},
			{Reg, SubNIStatus, 7},
			{Dev, SubNIStatus, 1},
			{Mem, SubDataMove, h},
			{Dev, SubNIWrite, h + 2},
		},
		CRXferRecvFixed: Items{
			{Reg, SubCallRet, 8},
			{Reg, SubNISetup, 2},
			{Reg, SubControlFlow, 1},
			{Mem, SubBookkeeping, 2},
			{Dev, SubNIStatus, 1},
		},
		CRXferRecvPacket: Items{
			{Reg, SubNIStatus, 5},
			{Dev, SubNIStatus, 1},
			{Dev, SubNIRead, h + 1},
			{Mem, SubDataMove, h},
			{Reg, SubControlFlow, 3}, // one fewer branch than CMAM
			{Reg, SubNISetup, 3},
		},
		CRBufferRegister: Items{
			{Reg, SubBookkeeping, 6},
			{Mem, SubBookkeeping, 2},
		},
		CRLastPacket: Items{
			{Reg, SubCallRet, 4},
			{Reg, SubBookkeeping, 2},
		},
		CRStreamSend: Items{
			{Reg, SubNISetup, 4},
			{Reg, SubControlFlow, 4},
			{Reg, SubNIStatus, 6},
			{Dev, SubNIStatus, 1},
			{Dev, SubNIWrite, h + 2},
			{Mem, SubBookkeeping, 1},
		},
		CRStreamRecvFixed: Items{
			{Reg, SubCallRet, 6},
			{Dev, SubNIStatus, 1},
			{Reg, SubNIStatus, 3},
			{Reg, SubControlFlow, 1},
		},
		CRStreamRecv: Items{
			{Reg, SubNIStatus, 4},
			{Dev, SubNIStatus, 1},
			{Dev, SubNIRead, h + 1},
			{Reg, SubControlFlow, 2}, // no sequence-number branch
			{Reg, SubNISetup, 3},
		},
		CRRetryBookkeep: nil, // header rejection/retry is handled by the NI
	}
	for _, b := range s.bundles() {
		*b = (*b)[:len(*b):len(*b)]
	}
	return s
}

// MustPaperSchedule is NewPaperSchedule that panics on invalid n; for use in
// tests and package-level defaults with known-good arguments.
func MustPaperSchedule(n int) *Schedule {
	s, err := NewPaperSchedule(n)
	if err != nil {
		panic(err)
	}
	return s
}

// WithImprovedNI returns a copy of the schedule modeling a tightly coupled
// (on-chip) network interface, per the Section 5 discussion: each bundle's
// dev-access instruction counts are divided by factor (rounding up, minimum
// one where any access existed). The paper's point — that reducing the base
// cost makes the protocol overheads a larger fraction — falls out of running
// the same experiments under this schedule.
func (s *Schedule) WithImprovedNI(factor uint64) *Schedule {
	if factor == 0 {
		factor = 1
	}
	c := s.Clone()
	c.Name = fmt.Sprintf("%s+improved-ni/%d", s.Name, factor)
	shrink := func(items Items) Items {
		if items == nil {
			return nil
		}
		out := make(Items, 0, len(items))
		for _, it := range items {
			if it.Cat == Dev {
				it.N = (it.N + factor - 1) / factor
			}
			out = append(out, it)
		}
		return out
	}
	for _, f := range c.bundles() {
		*f = shrink(*f)
	}
	return c
}

// WithInterruptReception returns a copy of the schedule modeling
// interrupt-driven reception instead of polling. The CM-5 NI supports
// interrupts, but CMAM polls because "the cost for interrupts is very high
// for the SPARC processor" (the paper's footnote 2): every packet reception
// additionally pays trapCost register instructions of trap entry/exit and
// context save/restore. Running the experiments under this schedule
// quantifies that remark.
func (s *Schedule) WithInterruptReception(trapCost uint64) *Schedule {
	c := s.Clone()
	c.Name = fmt.Sprintf("%s+interrupts/%d", s.Name, trapCost)
	trap := Item{Cat: Reg, Sub: SubCallRet, N: trapCost}
	addTrap := func(items Items) Items {
		if items == nil {
			return nil
		}
		out := make(Items, 0, len(items)+1)
		out = append(out, items...)
		return append(out, trap)
	}
	for _, f := range []*Items{
		&c.RecvSingle, &c.XferRecvPacket, &c.StreamRecvPacket,
		&c.AllocRequestRecv, &c.AllocReplyRecv, &c.XferAckRecv, &c.StreamAckRecv,
		&c.CRXferRecvPacket, &c.CRStreamRecv,
	} {
		*f = addTrap(*f)
	}
	return c
}

// bundles returns pointers to every charge bundle in the schedule, for
// whole-schedule transforms and validation.
func (s *Schedule) bundles() []*Items {
	return []*Items{
		&s.SendSingle, &s.RecvSingle,
		&s.XferSendFixed, &s.XferSendPacket, &s.XferRecvFixed, &s.XferRecvPacket,
		&s.AllocRequestSend, &s.AllocRequestRecv, &s.SegmentAllocate,
		&s.AllocReplySend, &s.AllocReplyRecv, &s.SegmentDeallocate,
		&s.OffsetPerPacket, &s.OffsetTrackFixed, &s.OffsetTrackPacket,
		&s.XferAckSend, &s.XferAckRecv, &s.LastPacketDetect, &s.SourceRetainMessage,
		&s.StreamSendPacket, &s.StreamRecvFixed, &s.StreamRecvPacket,
		&s.SeqPerPacket, &s.InOrderArrival, &s.OutOfOrderArrival, &s.DrainBuffered,
		&s.SourceBufferPacket, &s.StreamAckSend, &s.StreamAckRecv, &s.Retransmit,
		&s.CRXferSendFixed, &s.CRXferSendPacket, &s.CRXferRecvFixed, &s.CRXferRecvPacket,
		&s.CRBufferRegister, &s.CRLastPacket,
		&s.CRStreamSend, &s.CRStreamRecvFixed, &s.CRStreamRecv, &s.CRRetryBookkeep,
	}
}

// Validate checks internal consistency of the schedule against the paper's
// published anchors where they are size-independent: Table 1 totals (20
// source, 27 destination) and the fixed Appendix A costs.
func (s *Schedule) Validate() error {
	if s.PacketWords <= 0 || s.PacketWords%2 != 0 {
		return fmt.Errorf("cost: schedule %q has invalid packet payload %d", s.Name, s.PacketWords)
	}
	// The published anchors hold only for the unmodified paper schedule;
	// derived schedules (improved NI) legitimately change dev counts.
	if s.Name != "cmam-paper" {
		return nil
	}
	bufSrc := s.AllocRequestSend.Vec().Add(s.AllocReplyRecv.Vec())
	bufDst := s.AllocRequestRecv.Vec().
		Add(s.SegmentAllocate.Vec()).
		Add(s.AllocReplySend.Vec()).
		Add(s.SegmentDeallocate.Vec())
	anchors := [...]struct {
		name      string
		got, want uint64
	}{
		{"single-packet send", s.SendSingle.Total(), 20},
		{"single-packet receive", s.RecvSingle.Total(), 27},
		{"finite buffer mgmt source", bufSrc.Total(), 47},
		{"finite buffer mgmt destination", bufDst.Total(), 101},
		{"finite fault tol source", s.XferAckRecv.Total(), 27},
		{"finite fault tol destination", s.XferAckSend.Total(), 20},
	}
	for _, a := range anchors {
		if a.got != a.want {
			return fmt.Errorf("cost: schedule %q: %s totals %d, want %d", s.Name, a.name, a.got, a.want)
		}
	}
	return nil
}

// Describe renders every bundle of the schedule with its per-category
// totals — a human-readable calibration dump for auditing against the
// paper's Appendix A.
func (s *Schedule) Describe() string {
	names := []string{
		"SendSingle", "RecvSingle",
		"XferSendFixed", "XferSendPacket", "XferRecvFixed", "XferRecvPacket",
		"AllocRequestSend", "AllocRequestRecv", "SegmentAllocate",
		"AllocReplySend", "AllocReplyRecv", "SegmentDeallocate",
		"OffsetPerPacket", "OffsetTrackFixed", "OffsetTrackPacket",
		"XferAckSend", "XferAckRecv", "LastPacketDetect", "SourceRetainMessage",
		"StreamSendPacket", "StreamRecvFixed", "StreamRecvPacket",
		"SeqPerPacket", "InOrderArrival", "OutOfOrderArrival", "DrainBuffered",
		"SourceBufferPacket", "StreamAckSend", "StreamAckRecv", "Retransmit",
		"CRXferSendFixed", "CRXferSendPacket", "CRXferRecvFixed", "CRXferRecvPacket",
		"CRBufferRegister", "CRLastPacket",
		"CRStreamSend", "CRStreamRecvFixed", "CRStreamRecv", "CRRetryBookkeep",
	}
	bundles := s.bundles()
	out := fmt.Sprintf("schedule %q, packet payload %d words\n", s.Name, s.PacketWords)
	for i, name := range names {
		v := bundles[i].Vec()
		if v.IsZero() {
			out += fmt.Sprintf("  %-20s -\n", name)
			continue
		}
		out += fmt.Sprintf("  %-20s reg=%-4d mem=%-4d dev=%-4d total=%d\n",
			name, v.Reg, v.Mem, v.Dev, v.Total())
	}
	return out
}
