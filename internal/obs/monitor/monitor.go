// Package monitor is the deterministic SLO/alerting engine over the
// metrics timeline: it consumes closed sampling windows — streamed live
// from a timeline.Sampler or replayed from an exported Timeline — and
// evaluates declarative rules (latency-quantile ceilings, counter-rate
// bounds, link-utilization ceilings, multi-window burn rates) with
// open/close hysteresis, on simulated-cycle time only. Two runs of the
// same scenario therefore produce byte-identical incident reports at any
// host parallelism or flit-engine choice, and the live and replay paths
// agree by construction (both evaluate exactly the values the exported
// timeline carries).
//
// The steady-state evaluation path allocates nothing: rules are compiled
// to flat per-series dispatch lists refreshed only when the registry grows
// (a cold path), window scratch lives in the compiled rules, burn-rate
// history sits in preallocated rings, and the per-window callbacks are
// bound once at construction. Opening an incident is the exceptional cold
// path and may allocate — that is where the optional blame snippet (a
// Role×Feature×Category diff against the pre-violation window, wired via
// SetBlamer to avoid an import cycle with obs/diff) is computed.
package monitor

import (
	"fmt"

	"msglayer/internal/obs/timeline"
)

// BlameFunc computes a ranked blame snippet between the pre-violation
// window and the window that opened an alert. The blame subpackage
// provides the diff-backed implementation; nil disables blame.
type BlameFunc func(interval uint64, pre, vio timeline.Window, n int) []BlameEntry

// DefaultBlameEntries bounds the blame snippet attached to each incident.
const DefaultBlameEntries = 8

// ref routes one tracked series to one compiled rule.
type ref struct {
	rule int32
	role int8
}

const (
	roleMatch int8 = iota // rate / utilization / quantile match
	roleNum               // burn numerator
	roleDen               // burn denominator
)

// compiledRule is one rule with resolved defaults, its per-window scratch,
// and its hysteresis state machine.
type compiledRule struct {
	spec      Rule
	q         float64 // quantile rank
	severity  string
	threshold string // rendered once; stable across runs
	forW      int
	clearW    int
	shortF    uint64
	longF     uint64
	// lowerWorse: peaks track the minimum (rate-floor rules).
	lowerWorse bool

	// Burn-rate trailing ring of (num, den) per window, with running sums.
	ring           [][2]uint64
	ringPos, ringN int
	numSum, denSum uint64

	// Per-window scratch, reset by beginWindow.
	sum, num, den uint64
	worst         uint64
	worstSet      bool
	worstName     string

	// Hysteresis state.
	violStreak  int
	clearStreak int
	openIdx     int // index into Monitor.incidents, -1 when closed
	firstViol   int // window index starting the current violation streak
}

// evalWindow decides whether the current window violates the rule and
// returns the observed value (rate, quantile, worst permille, or error
// permille). It also advances the burn ring, so it must run exactly once
// per window per rule.
func (r *compiledRule) evalWindow(width uint64) (bool, uint64) {
	switch r.spec.Kind {
	case KindRate:
		rate := r.sum * 1000 / width
		v := false
		if r.spec.Max != nil && rate > *r.spec.Max {
			v = true
		}
		if r.spec.Min != nil && rate < *r.spec.Min {
			v = true
		}
		return v, rate
	case KindUtilization:
		return r.worstSet && r.worst > r.spec.MaxPermille, r.worst
	case KindQuantile:
		return r.worstSet && r.worst > *r.spec.Max, r.worst
	case KindBurn:
		if r.ringN == len(r.ring) {
			old := r.ring[r.ringPos]
			r.numSum -= old[0]
			r.denSum -= old[1]
		} else {
			r.ringN++
		}
		r.ring[r.ringPos] = [2]uint64{r.num, r.den}
		r.ringPos++
		if r.ringPos == len(r.ring) {
			r.ringPos = 0
		}
		r.numSum += r.num
		r.denSum += r.den
		short := burnViolated(r.num, r.den, r.shortF, r.spec.BudgetPermille)
		long := burnViolated(r.numSum, r.denSum, r.longF, r.spec.BudgetPermille)
		value := uint64(0)
		switch {
		case r.den > 0:
			value = r.num * 1000 / r.den
		case r.num > 0:
			value = 1000
		}
		return short && long, value
	}
	return false, 0
}

// burnViolated is the exact integer form of num/den >= factor * budget:
// cross-multiplied so den = 0 needs no special case (any error with no
// successes violates; no errors never does).
func burnViolated(num, den, factor, budget uint64) bool {
	return num > 0 && num*1000 >= factor*budget*den
}

// worse reports whether v is a worse observation than the current peak.
func (r *compiledRule) worse(v, peak uint64) bool {
	if r.lowerWorse {
		return v < peak
	}
	return v > peak
}

// Monitor evaluates one compiled rule set over a window stream. Like the
// sampler it subscribes to, it is single-threaded by design.
type Monitor struct {
	rules    []compiledRule
	s        *timeline.Sampler
	interval uint64

	// Per-series dispatch, extended on the rescan cold path. Names are the
	// rendered key strings, cached so the hot path never re-renders.
	nCtr, nHst int
	ctrRefs    [][]ref
	hstRefs    [][]ref
	ctrNames   []string
	hstNames   []string

	width     uint64 // current window width during evaluation
	windows   int
	incidents []Incident
	openCount int

	blamer BlameFunc
	blameN int

	// Callbacks bound once so the steady-state path creates no closures.
	ctrFn func(series int, delta uint64)
	hstFn func(series int, dn, dsum uint64, bounds, buckets []uint64)
	obsFn func(idx int)
	winAt func(idx int) timeline.Window
}

// New compiles the rule set into a monitor.
func New(rs *RuleSet) (*Monitor, error) {
	if err := rs.validate(); err != nil {
		return nil, err
	}
	m := &Monitor{blameN: DefaultBlameEntries}
	m.rules = make([]compiledRule, len(rs.Rules))
	for i, spec := range rs.Rules {
		r := &m.rules[i]
		r.spec = spec
		r.severity = spec.Severity
		if r.severity == "" {
			r.severity = "warn"
		}
		r.forW = max(spec.ForWindows, 1)
		r.clearW = max(spec.ClearWindows, 1)
		r.openIdx = -1
		switch spec.Kind {
		case KindQuantile:
			qname := spec.Quantile
			if qname == "" {
				qname = "p99"
				r.spec.Quantile = qname
			}
			r.q = quantileQ[qname]
			r.threshold = fmt.Sprintf("%s(%s) > %d", qname, spec.Match, *spec.Max)
		case KindRate:
			switch {
			case spec.Max != nil && spec.Min != nil:
				r.threshold = fmt.Sprintf("rate(%s) > %d or < %d per kcycle", spec.Match, *spec.Max, *spec.Min)
			case spec.Max != nil:
				r.threshold = fmt.Sprintf("rate(%s) > %d per kcycle", spec.Match, *spec.Max)
			default:
				r.threshold = fmt.Sprintf("rate(%s) < %d per kcycle", spec.Match, *spec.Min)
				r.lowerWorse = true
			}
		case KindUtilization:
			r.threshold = fmt.Sprintf("util(%s) > %d permille", spec.Match, spec.MaxPermille)
		case KindBurn:
			r.shortF = spec.ShortFactor
			if r.shortF == 0 {
				r.shortF = 10
			}
			r.longF = spec.LongFactor
			if r.longF == 0 {
				r.longF = 2
			}
			longW := spec.LongWindows
			if longW == 0 {
				longW = 12
			}
			r.ring = make([][2]uint64, longW)
			r.threshold = fmt.Sprintf("burn(%s / %s) >= %dx budget %d permille short and %dx over %d windows",
				spec.Num, spec.Den, r.shortF, spec.BudgetPermille, r.longF, longW)
		}
	}
	m.ctrFn = m.onCounterDelta
	m.hstFn = m.onHistogramDelta
	m.obsFn = m.observeLive
	return m, nil
}

// SetBlamer wires the blame computation run when an alert opens (nil
// disables it; the default is none). The blame subpackage's Compute is the
// canonical implementation.
func (m *Monitor) SetBlamer(fn BlameFunc) { m.blamer = fn }

// SetBlameEntries bounds the blame snippet length (0 disables).
func (m *Monitor) SetBlameEntries(n int) { m.blameN = n }

// Attach subscribes the monitor to a live sampler: every stored window is
// evaluated as it closes. Attach replaces any previous window listener on
// the sampler.
func (m *Monitor) Attach(s *timeline.Sampler) {
	m.s = s
	m.interval = s.Interval()
	m.winAt = s.SnapshotWindow
	s.SetWindowListener(m.obsFn)
}

// observeLive evaluates one freshly stored sampler window.
func (m *Monitor) observeLive(idx int) {
	if m.s.CounterSeries() != m.nCtr || m.s.HistogramSeries() != m.nHst {
		m.rescan()
	}
	start, end := m.s.WindowBounds(idx)
	m.beginWindow(end - start)
	m.s.EachWindowCounter(idx, m.ctrFn)
	m.s.EachWindowHistogram(idx, m.hstFn)
	m.decide(idx, end)
}

// rescan extends the per-series dispatch lists for series that appeared
// since the last window (cold path; series are created at attach time).
func (m *Monitor) rescan() {
	for i := m.nCtr; i < m.s.CounterSeries(); i++ {
		name := m.s.CounterKeyAt(i).String()
		m.ctrNames = append(m.ctrNames, name)
		var refs []ref
		for ri := range m.rules {
			r := &m.rules[ri]
			switch r.spec.Kind {
			case KindRate, KindUtilization:
				if r.spec.Match.matches(name) {
					refs = append(refs, ref{rule: int32(ri), role: roleMatch})
				}
			case KindBurn:
				if r.spec.Num.matches(name) {
					refs = append(refs, ref{rule: int32(ri), role: roleNum})
				}
				if r.spec.Den.matches(name) {
					refs = append(refs, ref{rule: int32(ri), role: roleDen})
				}
			}
		}
		m.ctrRefs = append(m.ctrRefs, refs)
	}
	m.nCtr = m.s.CounterSeries()
	for i := m.nHst; i < m.s.HistogramSeries(); i++ {
		name := m.s.HistogramKeyAt(i).String()
		m.hstNames = append(m.hstNames, name)
		var refs []ref
		for ri := range m.rules {
			r := &m.rules[ri]
			if r.spec.Kind == KindQuantile && r.spec.Match.matches(name) {
				refs = append(refs, ref{rule: int32(ri), role: roleMatch})
			}
		}
		m.hstRefs = append(m.hstRefs, refs)
	}
	m.nHst = m.s.HistogramSeries()
}

// beginWindow resets the per-window scratch.
func (m *Monitor) beginWindow(width uint64) {
	m.width = width
	for i := range m.rules {
		r := &m.rules[i]
		r.sum, r.num, r.den = 0, 0, 0
		r.worst, r.worstSet, r.worstName = 0, false, ""
	}
}

// onCounterDelta folds one counter's window delta into its rules.
func (m *Monitor) onCounterDelta(series int, delta uint64) {
	for _, rf := range m.ctrRefs[series] {
		r := &m.rules[rf.rule]
		switch rf.role {
		case roleNum:
			r.num += delta
		case roleDen:
			r.den += delta
		default:
			switch r.spec.Kind {
			case KindRate:
				r.sum += delta
			case KindUtilization:
				v := delta * 1000 / m.width
				if !r.worstSet || v > r.worst {
					r.worst, r.worstSet, r.worstName = v, true, m.ctrNames[series]
				}
			}
		}
	}
}

// onHistogramDelta folds one histogram's window deltas into its quantile
// rules, using exactly the arithmetic the exported timeline carries.
func (m *Monitor) onHistogramDelta(series int, dn, dsum uint64, bounds, buckets []uint64) {
	_ = dsum
	for _, rf := range m.hstRefs[series] {
		r := &m.rules[rf.rule]
		v := timeline.QuantileFromDeltas(bounds, buckets, dn, r.q)
		if !r.worstSet || v > r.worst {
			r.worst, r.worstSet, r.worstName = v, true, m.hstNames[series]
		}
	}
}

// decide runs every rule's hysteresis state machine over the scratch the
// window accumulated. idx is the window index, end its closing cycle.
func (m *Monitor) decide(idx int, end uint64) {
	m.windows++
	for ri := range m.rules {
		r := &m.rules[ri]
		violated, value := r.evalWindow(m.width)
		if violated {
			if r.violStreak == 0 {
				r.firstViol = idx
			}
			r.violStreak++
			r.clearStreak = 0
			if r.openIdx < 0 {
				if r.violStreak >= r.forW {
					m.open(ri, idx, end, value)
				}
			} else {
				inc := &m.incidents[r.openIdx]
				inc.Windows++
				if r.worse(value, inc.Peak) {
					inc.Peak = value
				}
			}
		} else {
			r.violStreak = 0
			if r.openIdx >= 0 {
				r.clearStreak++
				if r.clearStreak >= r.clearW {
					inc := &m.incidents[r.openIdx]
					inc.CloseWindow = idx
					inc.CloseCycle = end
					inc.Open = false
					r.openIdx = -1
					m.openCount--
				}
			}
		}
	}
}

// open records a new incident (cold path; allocation is fine here). The
// blame snippet diffs the window before the violation streak against the
// opening window; streaks starting at window 0 have no pre-violation
// window and carry no blame.
func (m *Monitor) open(ri, idx int, end uint64, value uint64) {
	r := &m.rules[ri]
	inc := Incident{
		Rule:        r.spec.Name,
		Kind:        string(r.spec.Kind),
		Severity:    r.severity,
		Threshold:   r.threshold,
		Series:      r.worstName,
		FirstWindow: r.firstViol,
		OpenWindow:  idx,
		CloseWindow: -1,
		OpenCycle:   end,
		Windows:     r.violStreak,
		Value:       value,
		Peak:        value,
		Open:        true,
	}
	if m.winAt != nil {
		inc.FirstCycle = m.winAt(r.firstViol).Start
		if r.firstViol > 0 && m.blamer != nil && m.blameN > 0 {
			inc.Blame = m.blamer(m.interval, m.winAt(r.firstViol-1), m.winAt(idx), m.blameN)
		}
	}
	r.openIdx = len(m.incidents)
	m.incidents = append(m.incidents, inc)
	m.openCount++
}

// Replay evaluates the rules over a recorded timeline. It is the offline
// twin of Attach: the same decide path runs over the exported window
// values, so a replayed report is byte-identical to the live one.
func (m *Monitor) Replay(tl *timeline.Timeline) error {
	if m.s != nil {
		return fmt.Errorf("monitor: already attached to a live sampler")
	}
	for i := range m.rules {
		r := &m.rules[i]
		if r.spec.Kind == KindQuantile && r.spec.Quantile == "p999" && !hasQuantile(tl, "p999") {
			return fmt.Errorf("monitor: rule %q needs p999, but the timeline was recorded without extended quantiles", r.spec.Name)
		}
	}
	m.interval = tl.Interval
	m.winAt = func(idx int) timeline.Window { return tl.Windows[idx] }
	for i := range tl.Windows {
		w := &tl.Windows[i]
		m.beginWindow(w.End - w.Start)
		for _, c := range w.Counters {
			m.replayCounter(c.Key, c.Delta)
		}
		for hi := range w.Hists {
			m.replayHist(&w.Hists[hi])
		}
		m.decide(i, w.End)
	}
	return nil
}

// hasQuantile reports whether the timeline's extended-quantile list names q.
func hasQuantile(tl *timeline.Timeline, q string) bool {
	for _, name := range tl.Quantiles {
		if name == q {
			return true
		}
	}
	return false
}

// replayCounter routes one exported counter delta by key string.
func (m *Monitor) replayCounter(key string, delta uint64) {
	for ri := range m.rules {
		r := &m.rules[ri]
		switch r.spec.Kind {
		case KindRate:
			if r.spec.Match.matches(key) {
				r.sum += delta
			}
		case KindUtilization:
			if r.spec.Match.matches(key) {
				v := delta * 1000 / m.width
				if !r.worstSet || v > r.worst {
					r.worst, r.worstSet, r.worstName = v, true, key
				}
			}
		case KindBurn:
			if r.spec.Num.matches(key) {
				r.num += delta
			}
			if r.spec.Den.matches(key) {
				r.den += delta
			}
		}
	}
}

// replayHist routes one exported histogram delta, reading the exported
// quantile the rule names.
func (m *Monitor) replayHist(h *timeline.HistDelta) {
	for ri := range m.rules {
		r := &m.rules[ri]
		if r.spec.Kind != KindQuantile || !r.spec.Match.matches(h.Key) {
			continue
		}
		var v uint64
		switch r.spec.Quantile {
		case "p50":
			v = h.P50
		case "p90":
			v = h.P90
		case "p999":
			v = h.P999
		default:
			v = h.P99
		}
		if !r.worstSet || v > r.worst {
			r.worst, r.worstSet, r.worstName = v, true, h.Key
		}
	}
}

// Windows returns how many windows were evaluated.
func (m *Monitor) Windows() int { return m.windows }

// OpenAlerts returns how many incidents are currently open.
func (m *Monitor) OpenAlerts() int { return m.openCount }

// IncidentCount returns how many incidents were recorded in total.
func (m *Monitor) IncidentCount() int { return len(m.incidents) }
