package critpath_test

import (
	"testing"

	"msglayer/internal/critpath"
	"msglayer/internal/obs"
)

// fuzzNames are event names the classifier knows, one per category and
// role; the decoder mixes them with arbitrary byte strings.
var fuzzNames = []string{
	"flit.xfer", "flit.delivered", "flit.wait.queue", "flit.wait.blocked",
	"flit.kill", "net.backpressure", "net.deliver", "cmam.send",
	"finite.start", "finite.packet.sent", "finite.retry", "cr.nack",
}

var fuzzProtos = []string{"cmam", "finite", "cr", "flitnet", ""}

// decodeEvents turns bytes into an event stream, six bytes an event:
//
//	b0: phase (bit 0) and name (bits 1-4; past the table, an arbitrary
//	    name taken from the following bytes)
//	b1: message id: 0-7, or a synthetic id (bit 7), or a wide one (bit 6)
//	b2: packet id 0-5
//	b3: node -5..40
//	b4: time step 0-7 (spans may start before the previous event's time)
//	b5: span length (bits 0-3), axis and protocol (bits 4-7)
func decodeEvents(data []byte) []obs.TraceEvent {
	var events []obs.TraceEvent
	var ts uint64
	for len(data) >= 6 {
		b := data[:6]
		data = data[6:]
		e := obs.TraceEvent{
			Phase: obs.PhaseInstant,
			PktID: uint64(b[2] % 6),
			Node:  int(b[3]%46) - 5,
			Axis:  obs.Axis((b[5] >> 4) % 5),
			Proto: fuzzProtos[int(b[5]>>4)%len(fuzzProtos)],
		}
		if sel := int(b[0]>>1) & 15; sel < len(fuzzNames) {
			e.Name = fuzzNames[sel]
		} else {
			n := min(sel-len(fuzzNames), len(data))
			e.Name = string(data[:n])
		}
		switch {
		case b[1]&0x80 != 0:
			e.MsgID = uint64(1)<<32 + uint64(b[1]&7)
		case b[1]&0x40 != 0:
			e.MsgID = uint64(b[1]) << 56
		default:
			e.MsgID = uint64(b[1] & 7)
		}
		ts += uint64(b[4] & 7)
		e.TS = ts
		if b[0]&1 != 0 {
			e.Phase = obs.PhaseComplete
			e.Dur = uint64(b[5] & 15)
			e.TS -= min(e.TS, uint64((b[4]>>3)&7))
		}
		events = append(events, e)
	}
	return events
}

// FuzzAnalyze checks Analyze on arbitrary event streams: it never panics,
// it equals the reference analyzer field for field, every message's
// categories telescope to its latency, and the critical path's categories
// sum to its span, with steps in time order ending at the last event.
func FuzzAnalyze(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events := decodeEvents(data)
		a := critpath.Analyze(events)
		checkReference(t, events, a)

		for _, m := range a.Messages {
			var cats uint64
			for _, v := range m.ByCategory {
				cats += v
			}
			if cats != m.Latency || m.End-m.Start != m.Latency {
				t.Fatalf("msg %d: categories %d, latency %d, span %d", m.ID, cats, m.Latency, m.End-m.Start)
			}
		}

		cp := a.Critical
		var crit uint64
		for _, v := range cp.ByCategory {
			crit += v
		}
		if crit != cp.Span {
			t.Fatalf("critical-path categories sum to %d, span is %d", crit, cp.Span)
		}
		for i := 1; i < len(cp.Steps); i++ {
			if cp.Steps[i].Time < cp.Steps[i-1].Time {
				t.Fatalf("critical-path step %d at %d precedes step %d at %d", i, cp.Steps[i].Time, i-1, cp.Steps[i-1].Time)
			}
		}
		if n := len(events); n > 0 && (len(cp.Steps) == 0 || cp.Steps[len(cp.Steps)-1].Name != events[n-1].Name) {
			t.Fatal("critical path does not end at the trace's last event")
		}
	})
}
