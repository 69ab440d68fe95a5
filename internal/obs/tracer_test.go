package obs

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// sliceTracer is the tracer as it was before the chunked store: one
// growing []TraceEvent. It is the oracle the store is checked against.
type sliceTracer struct {
	events []TraceEvent
	total  uint64
	lastTS uint64
	limit  int
}

func (t *sliceTracer) Record(e TraceEvent) {
	t.total++
	if len(t.events) >= t.limit {
		return
	}
	e.Seq = t.total
	if e.Phase == 0 {
		e.Phase = PhaseInstant
	}
	if e.Phase != PhaseComplete {
		ts := e.Round * RoundUnits
		if ts <= t.lastTS && t.total > 1 {
			ts = t.lastTS + 1
		}
		e.TS = ts
		t.lastTS = ts
	} else if e.TS+e.Dur > t.lastTS {
		t.lastTS = e.TS + e.Dur
	}
	t.events = append(t.events, e)
}

func (t *sliceTracer) Reset() {
	t.events = nil
	t.total = 0
	t.lastTS = 0
}

// checkAgainstOracle fails unless the store and the oracle hold the same
// stream.
func checkAgainstOracle(tb testing.TB, st *Tracer, or *sliceTracer) {
	tb.Helper()
	if got, want := st.Events(), or.events; !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				tb.Fatalf("event %d: store %+v, oracle %+v", i, got[i], want[i])
			}
		}
		tb.Fatalf("store holds %d events, oracle %d", len(got), len(want))
	}
	if st.Len() != len(or.events) || st.Dropped() != or.total-uint64(len(or.events)) || st.Now() != or.lastTS {
		tb.Fatalf("len/dropped/now = %d/%d/%d, oracle %d/%d/%d", st.Len(), st.Dropped(), st.Now(),
			len(or.events), or.total-uint64(len(or.events)), or.lastTS)
	}
}

var (
	oracleNames = []string{"flit.queued", "flit.xfer", "finite.start", "", "ctrlnet.scan.done", "flitnet"}
	oracleNodes = []int{-1, 0, 1, 15, math.MinInt, math.MaxInt}
)

// runStoreOps decodes data into a stream of tracer operations, applies it
// to a store with the given limit and to the oracle, and compares them
// after the stream and wherever the stream asks. Each operation takes five
// bytes: the op, three operands and a repeat count. Ops record instants
// (through Record or the interned path the hooks use), spans with explicit
// TS and Dur, dynamic names, or compare mid-stream; a rare op resets both.
func runStoreOps(tb testing.TB, limit int, data []byte) {
	st, or := NewTracer(limit), &sliceTracer{limit: limit}
	for ; len(data) >= 5; data = data[5:] {
		op, a, b, c, rep := data[0], uint64(data[1]), int(data[2]), int(data[3]), int(data[4])
		switch op % 32 {
		case 0:
			st.Reset()
			or.Reset()
			continue
		case 1:
			checkAgainstOracle(tb, st, or)
			continue
		}
		e := TraceEvent{
			Round: a, Seq: a * 7, TS: a * 3, Node: oracleNodes[b%len(oracleNodes)],
			Name: oracleNames[c%len(oracleNames)], Proto: oracleNames[(c/8)%len(oracleNames)],
			Axis: Axis(b % 5), MsgID: a ^ uint64(b), PktID: uint64(c), Parent: uint64(b * c),
		}
		switch op % 8 {
		case 2, 3:
			e.Phase, e.TS, e.Dur, e.SpanID = PhaseComplete, a*RoundUnits+uint64(b), uint64(c), a+1
		case 4:
			e.Name = fmt.Sprintf("netload.cr.load_%d", c)
		case 5:
			e.Phase = PhaseInstant
		}
		for i := 0; i <= rep%128; i++ {
			if op&32 != 0 && e.Phase != PhaseComplete {
				e.Round += uint64(i % 2)
			}
			or.Record(e)
			if op&64 != 0 {
				st.add(TraceRecord{
					TS: e.TS, Round: e.Round, Dur: e.Dur,
					MsgID: e.MsgID, PktID: e.PktID, SpanID: e.SpanID, Parent: e.Parent,
					Node: e.Node, Name: st.intern(e.Name), Proto: st.intern(e.Proto),
					Axis: e.Axis, Phase: e.Phase,
				})
			} else {
				st.Record(e)
			}
		}
	}
	checkAgainstOracle(tb, st, or)
}

// TestTraceStoreMatchesSliceOracle feeds the store and the slice-based
// tracer it replaced the same random streams, at limits on and around the
// chunk boundaries, and requires identical events, lengths, drop counts
// and clocks.
func TestTraceStoreMatchesSliceOracle(t *testing.T) {
	for _, limit := range []int{1, traceChunk - 1, traceChunk, traceChunk + 1, 3 * traceChunk} {
		for seed := int64(1); seed <= 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			data := make([]byte, 5*400)
			r.Read(data)
			for i := 0; i < len(data); i += 5 {
				if data[i]%32 == 0 && r.Intn(20) != 0 {
					data[i]++ // resets are rare, so streams reach the cap
				}
			}
			t.Run(fmt.Sprintf("limit%d/seed%d", limit, seed), func(t *testing.T) {
				runStoreOps(t, limit, data)
			})
		}
	}
}

// FuzzTracerStore checks the oracle property on arbitrary operation
// streams; the first byte picks the limit.
func FuzzTracerStore(f *testing.F) {
	f.Add([]byte{0, 2, 1, 2, 3, 127, 1, 0, 0, 0, 0})
	f.Add([]byte{3, 70, 9, 5, 8, 127, 34, 9, 4, 17, 100, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		limits := []int{1, 2, traceChunk - 1, traceChunk, traceChunk + 1, 3 * traceChunk}
		runStoreOps(t, limits[int(data[0])%len(limits)], data[1:])
	})
}

// TestTracerEventsViewFresh checks that Events is a caller-owned
// snapshot: a call after more recording includes the new events, earlier
// snapshots stay as they were, writing to a snapshot does not reach the
// store, and Reset clears everything.
func TestTracerEventsViewFresh(t *testing.T) {
	tr := NewTracer(0)
	for i := 0; i < traceChunk+3; i++ {
		tr.Record(TraceEvent{Round: uint64(i), Name: "a", Proto: "p"})
	}
	first := tr.Events()
	if len(first) != traceChunk+3 || first[traceChunk+2].Seq != traceChunk+3 {
		t.Fatalf("first view: %d events", len(first))
	}
	scribbled := tr.Events()
	scribbled[0].Name, scribbled[traceChunk].Node = "scribbled", 99
	tr.Record(TraceEvent{Round: 1 << 20, Name: "b", Proto: "p", Node: 3})
	second := tr.Events()
	if len(second) != traceChunk+4 {
		t.Fatalf("second view holds %d events, want %d", len(second), traceChunk+4)
	}
	if e := second[traceChunk+3]; e.Name != "b" || e.Node != 3 || e.Seq != traceChunk+4 || e.TS != (1<<20)*RoundUnits {
		t.Fatalf("new event materialized as %+v", e)
	}
	if !reflect.DeepEqual(second[:len(first)], first) || len(first) != traceChunk+3 {
		t.Fatal("an earlier snapshot changed, a write to one reached the store, or the new view lost its prefix")
	}
	tr.Reset()
	if tr.Events() != nil || tr.Len() != 0 || tr.Dropped() != 0 || tr.Now() != 0 {
		t.Fatalf("after Reset: %d events, len %d, dropped %d, now %d", len(tr.Events()), tr.Len(), tr.Dropped(), tr.Now())
	}
	tr.Record(TraceEvent{Round: 2, Name: "c"})
	if ev := tr.Events(); len(ev) != 1 || ev[0].Name != "c" || ev[0].Seq != 1 || ev[0].TS != 2*RoundUnits {
		t.Fatalf("first event after Reset: %+v", ev)
	}
}

// TestTraceEventSize holds the materialized event to 112 bytes: every
// Events() view costs that much per event while its reader holds it.
func TestTraceEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes differ off 64-bit platforms")
	}
	if got := unsafe.Sizeof(TraceEvent{}); got > 112 {
		t.Errorf("TraceEvent takes %d bytes, want at most 112", got)
	}
}

// TestFlitScopeFollowsTracerSwap replaces the hub's tracer between events
// and checks the scope re-interns its cached names in the new tracer.
func TestFlitScopeFollowsTracerSwap(t *testing.T) {
	h := NewHub()
	s := h.FlitScope()
	s.Event("flit.queued", 1, 1, 1, 0)
	s.Span("flit.xfer", 1, 3, 1, 1, 0)
	h.Trace = NewTracer(0)
	h.Trace.Record(TraceEvent{Name: "other", Proto: "x"}) // shifts every id
	s.Event("flit.delivered", 4, 1, 1, 0)
	s.Span("flit.xfer", 2, 4, 1, 1, 0)
	s.Event("flit.queued", 5, 2, 2, 0)
	var got []string
	for _, e := range h.Trace.Events()[1:] {
		got = append(got, e.Name+"/"+e.Proto+"/"+e.Axis.String())
	}
	want := []string{
		"flit.delivered/flitnet/" + AxisForEvent("flit.delivered").String(),
		"flit.xfer/flitnet/" + AxisForEvent("flit.xfer").String(),
		"flit.queued/flitnet/" + AxisForEvent("flit.queued").String(),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after the swap recorded %v, want %v", got, want)
	}
}

// TestFlitScopeRecordAllocs holds the flit hooks to the store's amortized
// cost: one chunk per traceChunk records plus the chunk list's growth, at
// most 0.01 allocations per hook call.
func TestFlitScopeRecordAllocs(t *testing.T) {
	h := NewHub()
	s := h.FlitScope()
	s.Event("flit.queued", 0, 0, 0, 0) // create the entries and the counter
	s.Span("flit.xfer", 0, 1, 0, 0, 0)
	const calls = 16 * traceChunk
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(1); i <= calls/2; i++ {
		s.Event("flit.queued", i, i, i, 0)
		s.Span("flit.xfer", i, i+3, i, i, 0)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / calls; per > 0.01 {
		t.Fatalf("%.4f allocations per hook call, want at most 0.01", per)
	}
}

// BenchmarkTracerRecord drives the flit scope's event and span hooks into
// a hub, so it measures the whole recording path: the entry lookup, the
// mirrored counter and the store append. The store allocates one chunk per
// traceChunk records; Reset at the cap keeps the run unbounded.
func BenchmarkTracerRecord(b *testing.B) {
	h := NewHub()
	s := h.FlitScope()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if h.Trace.Len() >= DefaultTraceLimit-1 {
			h.Trace.Reset()
		}
		c := uint64(i)
		s.Event("flit.queued", c, c, c, 0)
		s.Span("flit.xfer", c, c+3, c, c, 0)
	}
}

// BenchmarkNodeScopeRecord drives a node scope's event hook, the path
// machine runs record through: Record interns the event's name and
// protocol on every call.
func BenchmarkNodeScopeRecord(b *testing.B) {
	h := NewHub()
	s := h.NodeScope(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if h.Trace.Len() >= DefaultTraceLimit-1 {
			h.Trace.Reset()
		}
		s.Event("finite.packet.sent")
	}
}
