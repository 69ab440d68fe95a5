package obs

// Phase classifies a trace event, following the Chrome trace-event
// phase vocabulary.
type Phase byte

const (
	// PhaseInstant is a point event ("i").
	PhaseInstant Phase = 'i'
	// PhaseComplete is a duration event with an explicit length ("X").
	PhaseComplete Phase = 'X'
)

// TraceEvent is one structured event recorded by the tracer. Timestamps
// are in simulated time: TS counts tracer time units, where one scheduler
// round of an observed machine run spans RoundUnits units and events
// within a round occupy consecutive units in emission order.
type TraceEvent struct {
	// TS is the simulated-time timestamp, strictly monotonic across the
	// recorded stream.
	TS uint64
	// Round is the scheduler round the event occurred in.
	Round uint64
	// Seq is the event's position in emission order, from 1.
	Seq uint64
	// Node is the emitting node; -1 for machine- or network-wide events.
	Node int
	// Name is the event name ("finite.packet.sent", "net.backpressure").
	Name string
	// Proto is the protocol/subsystem the event belongs to.
	Proto string
	// Axis is the paper Feature axis the event is attributed to.
	Axis Axis
	// Phase distinguishes instant events from spans.
	Phase Phase
	// Dur is the event length in time units (PhaseComplete only).
	Dur uint64
	// MsgID is the causal message identity the event belongs to; 0 when
	// the event is not attributable to a message.
	MsgID uint64
	// PktID is the packet identity within the message; 0 when unknown.
	PktID uint64
	// SpanID identifies a PhaseComplete span; 0 for instants.
	SpanID uint64
	// Parent is the enclosing span's SpanID; 0 at the root.
	Parent uint64
}

// RoundUnits is the width of one scheduler round in tracer time units.
// Exported traces use one unit = one microsecond, so a round reads as
// 100 µs on a Chrome/perfetto timeline.
const RoundUnits = 100

// DefaultTraceLimit is the default cap on retained trace events.
const DefaultTraceLimit = 1 << 20

// traceChunk is the number of records in one storage chunk.
const traceChunk = 1024

// TraceRecord is the form the tracer stores an event in: a TraceEvent
// whose Name and Proto are ids in the tracer's symbol table (resolve them
// with Symbol) and whose Seq is implied by its position. It holds no
// pointers, so the garbage collector never scans the store.
type TraceRecord struct {
	TS, Round, Dur               uint64
	MsgID, PktID, SpanID, Parent uint64
	Node                         int
	Name, Proto                  uint32
	Axis                         Axis
	Phase                        Phase
}

// Tracer records structured events with simulated-time timestamps. It
// generalizes internal/trace (which reconstructs the paper's four figure
// diagrams) to arbitrary runs: every named protocol event, with node,
// protocol, and Feature-axis attribution, in a form exportable to the
// Chrome trace-event format.
//
// Events are stored as TraceRecords in an append-only list of fixed-size
// chunks, so growth never copies or clears what is already recorded.
// Names and protocols are interned once per tracer. Events are retained
// in order until the cap, so the record at index i has Seq i+1.
//
// Like the rest of the simulator the tracer is single-threaded by design.
type Tracer struct {
	chunks []*[traceChunk]TraceRecord
	n      int    // retained records
	total  uint64 // events ever offered, including dropped
	lastTS uint64
	limit  int

	syms []string          // symbol id -> string
	ids  map[string]uint32 // string -> symbol id
}

// NewTracer returns an empty tracer. limit bounds the number of retained
// events (0 = DefaultTraceLimit); once full, further events are counted
// but dropped so long runs cannot exhaust memory.
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	return &Tracer{limit: limit}
}

// intern returns the symbol id of s, adding it on first sight.
func (t *Tracer) intern(s string) uint32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]uint32)
	}
	id := uint32(len(t.syms))
	t.syms = append(t.syms, s)
	t.ids[s] = id
	return id
}

// Symbol returns the string a TraceRecord's Name or Proto id stands for.
func (t *Tracer) Symbol(id uint32) string { return t.syms[id] }

// Symbols returns the number of interned strings; ids run from 0 to
// Symbols()-1.
func (t *Tracer) Symbols() int { return len(t.syms) }

// Record appends an event, assigning its sequence number and a strictly
// monotonic timestamp derived from the round: the first event of round r
// lands at r*RoundUnits, later events in the same round at consecutive
// units. Dur-carrying (PhaseComplete) events keep the caller's TS/Dur.
func (t *Tracer) Record(e TraceEvent) {
	if t.n >= t.limit { // counted and dropped without interning its strings
		t.total++
		return
	}
	t.add(TraceRecord{
		TS: e.TS, Round: e.Round, Dur: e.Dur,
		MsgID: e.MsgID, PktID: e.PktID, SpanID: e.SpanID, Parent: e.Parent,
		Node: e.Node, Name: t.intern(e.Name), Proto: t.intern(e.Proto),
		Axis: e.Axis, Phase: e.Phase,
	})
}

// add is Record for an event whose Name and Proto are already interned.
func (t *Tracer) add(r TraceRecord) {
	t.total++
	if t.n >= t.limit {
		return
	}
	if r.Phase == 0 {
		r.Phase = PhaseInstant
	}
	if r.Phase != PhaseComplete {
		ts := r.Round * RoundUnits
		if ts <= t.lastTS && t.total > 1 {
			ts = t.lastTS + 1
		}
		r.TS = ts
		t.lastTS = ts
	} else if r.TS+r.Dur > t.lastTS {
		t.lastTS = r.TS + r.Dur
	}
	i := t.n % traceChunk
	if i == 0 {
		t.chunks = append(t.chunks, new([traceChunk]TraceRecord))
	}
	t.chunks[len(t.chunks)-1][i] = r
	t.n++
}

// At returns the retained record at index i, 0 <= i < Len(); its Seq is
// i+1. The record is the tracer's storage: callers must not modify it.
func (t *Tracer) At(i int) *TraceRecord {
	return &t.chunks[uint(i)/traceChunk][uint(i)%traceChunk]
}

// Events returns the recorded events in emission order, materialized from
// the store into a fresh exact-size slice. The slice is a snapshot owned by
// the caller: later Records and Resets do not change it. Each call converts
// the whole store, so callers that read the stream more than once should
// keep the slice, and callers that need only some fields should read the
// store through At and Symbol instead.
func (t *Tracer) Events() []TraceEvent {
	if t.n == 0 {
		return nil
	}
	view := make([]TraceEvent, t.n)
	for i := range view {
		// Field by field into the zeroed slot: copying a whole event would
		// take a bulk write barrier per event while the GC is marking.
		r, e := t.At(i), &view[i]
		e.TS, e.Round, e.Seq, e.Node = r.TS, r.Round, uint64(i)+1, r.Node
		e.Name, e.Proto, e.Axis, e.Dur, e.Phase = t.syms[r.Name], t.syms[r.Proto], r.Axis, r.Dur, r.Phase
		e.MsgID, e.PktID, e.SpanID, e.Parent = r.MsgID, r.PktID, r.SpanID, r.Parent
	}
	return view
}

// Len returns the number of retained events.
func (t *Tracer) Len() int { return t.n }

// Dropped returns how many events were discarded after the tracer filled.
func (t *Tracer) Dropped() uint64 { return t.total - uint64(t.n) }

// Now returns the last assigned timestamp — the tracer's current position
// in simulated time.
func (t *Tracer) Now() uint64 { return t.lastTS }

// Reset clears the recorded stream, keeping the configured limit. The
// symbol table survives, so ids cached by recording scopes stay valid.
func (t *Tracer) Reset() {
	t.chunks = nil
	t.n = 0
	t.total = 0
	t.lastTS = 0
}
