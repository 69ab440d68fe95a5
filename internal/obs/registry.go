package obs

import (
	"math"
	"sort"
	"strconv"
)

// Key identifies one metric time series: a metric name plus the label set
// the observability layer supports (node, protocol, event). Unused labels
// stay at their zero values (Node: -1 means "not node-scoped").
type Key struct {
	// Name is the metric name, e.g. "packets_sent_total".
	Name string
	// Node is the node the series is attributed to; -1 for machine-wide
	// series.
	Node int
	// Proto is the protocol or subsystem label ("finite", "stream",
	// "crfinite", "crstream", "cmam", "net", "ctrlnet", ...); empty when
	// the metric is not protocol-scoped.
	Proto string
	// Event is the protocol event-name label, used by the per-event
	// counters; empty otherwise.
	Event string
}

// String renders the key in Prometheus exposition style.
func (k Key) String() string {
	if k.Node < 0 && k.Proto == "" && k.Event == "" {
		return k.Name
	}
	b := append(make([]byte, 0, len(k.Name)+48), k.Name...)
	b = append(k.appendLabels(append(b, '{')), '}')
	return string(b)
}

// labelString renders only the label set (no braces), empty if unlabeled.
func (k Key) labelString() string {
	return string(k.appendLabels(nil))
}

// appendLabels appends the label set (no braces) to b. Label values are
// quoted as Go strings, matching the exposition format's escaping.
func (k Key) appendLabels(b []byte) []byte {
	n := len(b)
	if k.Node >= 0 {
		b = append(b, `node="`...)
		b = append(strconv.AppendInt(b, int64(k.Node), 10), '"')
	}
	if k.Proto != "" {
		if len(b) > n {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(append(b, "proto="...), k.Proto)
	}
	if k.Event != "" {
		if len(b) > n {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(append(b, "event="...), k.Event)
	}
	return b
}

// Counter is a monotonically increasing metric. Like the rest of the
// simulator it is single-threaded by design and not safe for concurrent
// mutation.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Level is a gauge-style metric: a value that can go up and down (queue
// depths, open segments). Named Level rather than Gauge to avoid colliding
// with the instruction-count cost.Gauge that the rest of the repo calls
// "the gauge".
type Level struct{ v int64 }

// Set overwrites the value.
func (l *Level) Set(v int64) { l.v = v }

// Add adjusts the value by delta (may be negative).
func (l *Level) Add(delta int64) { l.v += delta }

// Value returns the current value.
func (l *Level) Value() int64 { return l.v }

// DefaultBounds is the fixed exponential bucket layout used when a
// histogram is created without explicit bounds. Values are in the metric's
// own unit (simulated rounds for latencies, packets for depths).
var DefaultBounds = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}

// Histogram is a fixed-bucket histogram. Bucket i counts observations
// <= Bounds[i]; one extra bucket counts the overflow (+Inf).
type Histogram struct {
	bounds []uint64
	counts []uint64 // len(bounds)+1, last is +Inf
	sum    uint64
	n      uint64
	max    uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds
// (nil means DefaultBounds).
func NewHistogram(bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBounds
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.sum += v
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Max returns the largest value observed (0 before any observation).
func (h *Histogram) Max() uint64 { return h.max }

// Quantile returns an upper estimate of the q-quantile (0 <= q <= 1) from
// the fixed buckets: the smallest bucket upper bound whose cumulative count
// covers rank ceil(q*n), never exceeding the exact maximum observed (a
// bucket bound above the max would over-report; the max is known exactly).
// Ranks falling into the +Inf overflow bucket report the maximum for the
// same reason. An empty histogram reports 0 for every q; out-of-range and
// NaN q clamp to the nearest valid quantile (NaN to 0).
func (h *Histogram) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if !(q >= 0) { // also catches NaN, which fails every comparison
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var acc uint64
	for i, c := range h.counts {
		acc += c
		if acc >= rank {
			if i < len(h.bounds) && h.bounds[i] < h.max {
				return h.bounds[i]
			}
			return h.max // overflow bucket, or a bound past the true max
		}
	}
	return h.max
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of observations.
func (h *Histogram) Sum() uint64 { return h.sum }

// Bounds returns the bucket upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []uint64 { return h.bounds }

// BucketCounts returns the per-bucket (non-cumulative) counts, one per
// bound plus the final +Inf bucket. The slice is the histogram's own
// storage; callers must not mutate it. The timeline sampler diffs it
// window over window without allocating.
func (h *Histogram) BucketCounts() []uint64 { return h.counts }

// Cumulative returns the cumulative bucket counts, one per bound plus the
// final +Inf bucket — the Prometheus exposition layout.
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		out[i] = acc
	}
	return out
}

// Registry holds all metric series of one observability hub, keyed by node
// and protocol. Instrumented layers resolve their series once (at attach
// time) and hold the returned pointers, keeping the per-packet path free of
// map lookups and allocations.
type Registry struct {
	counters map[Key]*Counter
	levels   map[Key]*Level
	hists    map[Key]*Histogram
	// quantiles customizes the bucket-derived quantiles both exporters
	// emit; nil selects DefaultQuantiles, keeping historical output stable.
	quantiles []ExportQuantile
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[Key]*Counter),
		levels:   make(map[Key]*Level),
		hists:    make(map[Key]*Histogram),
	}
}

// Counter returns the counter for the key, creating it at zero on first
// use. The returned pointer is stable for the registry's lifetime.
func (r *Registry) Counter(k Key) *Counter {
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Level returns the gauge-style series for the key, creating it on first
// use.
func (r *Registry) Level(k Key) *Level {
	l, ok := r.levels[k]
	if !ok {
		l = &Level{}
		r.levels[k] = l
	}
	return l
}

// Histogram returns the histogram for the key, creating it with the given
// bounds (nil = DefaultBounds) on first use. Bounds are fixed at creation;
// later calls ignore the argument.
func (r *Registry) Histogram(k Key, bounds []uint64) *Histogram {
	h, ok := r.hists[k]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[k] = h
	}
	return h
}

// CounterKeys returns every counter key in the registry's deterministic
// export order, for consumers that audit the full counter set (the
// critical-path reconciler cross-checks each against the trace).
func (r *Registry) CounterKeys() []Key { return sortedKeys(r.counters) }

// LevelKeys returns every level key in deterministic export order.
func (r *Registry) LevelKeys() []Key { return sortedKeys(r.levels) }

// HistogramKeys returns every histogram key in deterministic export order.
func (r *Registry) HistogramKeys() []Key { return sortedKeys(r.hists) }

// SeriesCounts returns the number of counter, level, and histogram series.
// It is a cheap change signature: the timeline sampler compares it at each
// window boundary and rescans (cold path) only when a new series appeared.
func (r *Registry) SeriesCounts() (counters, levels, hists int) {
	return len(r.counters), len(r.levels), len(r.hists)
}

// CounterValue returns the value of a counter, zero if it was never
// created. Convenient for tests and reports.
func (r *Registry) CounterValue(k Key) uint64 {
	if c, ok := r.counters[k]; ok {
		return c.Value()
	}
	return 0
}

// sortedKeys returns map keys in deterministic order.
func sortedKeys[V any](m map[Key]V) []Key {
	keys := make([]Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Proto != b.Proto {
			return a.Proto < b.Proto
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Event < b.Event
	})
	return keys
}
