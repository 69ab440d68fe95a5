// Package timeline adds the time axis the aggregate registry collapses: a
// windowed sampler that, at a fixed simulated-cycle interval, closes a
// window over every registry series and stores the delta the window
// accumulated. The result is deterministic time-series telemetry — rates,
// windowed histogram quantiles, per-window Role×Feature×Category
// breakdowns, and phase segmentation — derived purely from simulated time,
// so dense and event-driven engines (and any host parallelism) produce
// byte-identical timelines.
//
// The steady-state sampling path allocates nothing: tracked series live in
// flat slices, window contents are delta-encoded into shared arenas, and
// the registry is rescanned for new series only when its series counts
// change (a cold path — instrumented layers create their series at attach
// time). Windows an idle fast-forward jumped over contain no mutations by
// construction, so sampling them late yields the same zero-delta windows a
// cycle-by-cycle run records.
package timeline

import (
	"fmt"

	"msglayer/internal/obs"
)

// DefaultInterval is the window width in simulated cycles when the config
// leaves it zero.
const DefaultInterval = 100

// DefaultMaxWindows bounds retained windows when the config leaves the cap
// zero, so an unbounded run cannot exhaust memory. Windows past the cap
// are counted in Dropped rather than stored, mirroring the tracer.
const DefaultMaxWindows = 1 << 20

// Config tunes a Sampler. The zero value selects the defaults.
type Config struct {
	// Interval is the window width in simulated cycles (0 = DefaultInterval).
	Interval uint64
	// MaxWindows caps retained windows (0 = DefaultMaxWindows).
	MaxWindows int
	// Quantile999 adds a windowed p99.9 to every exported histogram delta
	// (and marks the timeline's quantile list accordingly). Off by default
	// so existing timelines, goldens, and digests stay byte-identical.
	Quantile999 bool
}

// ctrack is one tracked counter: the live series and the value already
// attributed to closed windows.
type ctrack struct {
	c    *obs.Counter
	prev uint64
}

// ltrack is one tracked level (gauge). Levels are sampled, not
// delta-encoded: a window stores the value only when it differs from the
// last stored one, so an unchanged gauge costs nothing per window.
type ltrack struct {
	l    *obs.Level
	last int64
	seen bool
}

// htrack is one tracked histogram with its previous cumulative state; the
// per-bucket copy lets a window carry the bucket-count deltas windowed
// quantiles are computed from.
type htrack struct {
	h              *obs.Histogram
	prevN, prevSum uint64
	prevBuckets    []uint64
}

// windowHdr is one closed window: its cycle range and the half-open slices
// of the delta arenas holding its contents.
type windowHdr struct {
	start, end uint64
	c0, c1     int
	l0, l1     int
	h0, h1     int
}

// cdelta is one counter's increment within a window.
type cdelta struct {
	series int32
	delta  uint64
}

// lsample is one level's value at a window close.
type lsample struct {
	series int32
	value  int64
}

// hdelta is one histogram's within-window activity; its bucket-count
// deltas live at buckets[b0 : b0+len(bounds)+1].
type hdelta struct {
	series   int32
	dn, dsum uint64
	b0       int32
}

// Sampler accumulates a delta-encoded metrics timeline from one registry.
// Like the rest of the simulator it is single-threaded by design.
type Sampler struct {
	reg        *obs.Registry
	interval   uint64
	maxWindows int

	// Tracked series, append-only so arena records keep stable ids across
	// rescans. The idx maps are touched only on the rescan cold path.
	ctr     []ctrack
	lvl     []ltrack
	hst     []htrack
	ctrKeys []obs.Key
	hstKeys []obs.Key
	ctrIdx  map[obs.Key]int32
	lvlIdx  map[obs.Key]int32
	hstIdx  map[obs.Key]int32
	// Each tracked key rendered once, when its series is first tracked, so
	// snapshots never format a key again.
	ctrNames []string
	lvlNames []string
	hstNames []string

	windows []windowHdr
	cds     []cdelta
	lss     []lsample
	hds     []hdelta
	buckets []uint64

	next    uint64 // next window boundary (the end of the open window)
	dropped uint64
	flushed bool
	q999    bool

	// onWindow, when set, fires after each window is stored (never for
	// windows dropped at the cap), with the new window's index. It is the
	// subscription point for streaming consumers (the SLO monitor); the
	// callback runs on the sampling path, so it must not mutate the sampler.
	onWindow func(idx int)
}

// New builds a sampler over reg. Series already in the registry are
// baselined at zero, not at their current values, so per-window deltas sum
// to the end-of-run totals even when the sampler attaches after the series
// were created (the usual case: layers create series at attach time).
func New(reg *obs.Registry, cfg Config) *Sampler {
	if cfg.Interval == 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.MaxWindows == 0 {
		cfg.MaxWindows = DefaultMaxWindows
	}
	s := &Sampler{
		reg:        reg,
		interval:   cfg.Interval,
		maxWindows: cfg.MaxWindows,
		next:       cfg.Interval,
		q999:       cfg.Quantile999,
		ctrIdx:     make(map[obs.Key]int32),
		lvlIdx:     make(map[obs.Key]int32),
		hstIdx:     make(map[obs.Key]int32),
	}
	s.rescan()
	return s
}

// Interval returns the configured window width in cycles.
func (s *Sampler) Interval() uint64 { return s.interval }

// SetWindowListener registers fn to run after every stored window, with the
// window's index. One listener is supported; nil detaches. Dropped windows
// (past the cap) never notify — the stream a listener sees is exactly the
// stream Snapshot exports.
func (s *Sampler) SetWindowListener(fn func(idx int)) { s.onWindow = fn }

// Windows returns the number of closed windows.
func (s *Sampler) Windows() int { return len(s.windows) }

// Dropped returns how many windows were discarded after the cap filled.
func (s *Sampler) Dropped() uint64 { return s.dropped }

// Advance moves the sampler's clock to the simulated cycle now, closing
// every window whose boundary was reached. The caller invokes it after the
// mutations of cycle `now` and before those of any later cycle; jumps
// (idle fast-forward, batched control-network rounds) close all the
// intervening windows in one call, each holding exactly the deltas its
// cycle range accumulated — zero for the windows inside the jump.
func (s *Sampler) Advance(now uint64) {
	if s.flushed {
		return
	}
	for s.next <= now {
		s.sample(s.next-s.interval, s.next)
		s.next += s.interval
	}
}

// Flush closes the timeline at cycle now: any remaining full windows are
// closed, then a final partial window covers the tail past the last
// boundary. After Flush the sampler is terminal; further Advance calls are
// no-ops and Reconcile can audit the stream against the registry.
func (s *Sampler) Flush(now uint64) {
	if s.flushed {
		return
	}
	s.Advance(now)
	if start := s.next - s.interval; now > start {
		s.sample(start, now)
	}
	s.flushed = true
}

// Finish is the one way an observed run closes its timeline: it flushes at
// cycle now, clamped to at least 1 so a run that never ticked its clock
// (a single-packet delivery) still closes one window holding all its
// deltas, audits the windows against the registry with Reconcile, and
// returns the snapshot.
func (s *Sampler) Finish(now uint64) (*Timeline, error) {
	s.Flush(max(now, 1))
	if err := s.Reconcile(); err != nil {
		return nil, err
	}
	return s.Snapshot(), nil
}

// Reset discards all closed windows, keeping their capacity, re-baselines
// every tracked series at its current value, and restarts the clock at the
// first boundary after now. It exists for steady-state reuse (benchmarks,
// long-lived servers rotating timelines) and allocates nothing unless the
// registry grew; a reset sampler no longer reconciles against registry
// totals, which include pre-reset history.
func (s *Sampler) Reset(now uint64) {
	s.windows = s.windows[:0]
	s.cds = s.cds[:0]
	s.lss = s.lss[:0]
	s.hds = s.hds[:0]
	s.buckets = s.buckets[:0]
	s.dropped = 0
	s.flushed = false
	s.next = now - now%s.interval + s.interval
	if c, l, h := s.reg.SeriesCounts(); c != len(s.ctr) || l != len(s.lvl) || h != len(s.hst) {
		s.rescan()
	}
	for i := range s.ctr {
		s.ctr[i].prev = s.ctr[i].c.Value()
	}
	for i := range s.lvl {
		s.lvl[i].seen = false
	}
	for i := range s.hst {
		t := &s.hst[i]
		t.prevN, t.prevSum = t.h.Count(), t.h.Sum()
		copy(t.prevBuckets, t.h.BucketCounts())
	}
}

// sample closes one window covering cycles (start, end].
func (s *Sampler) sample(start, end uint64) {
	if len(s.windows) >= s.maxWindows {
		s.dropped++
		return
	}
	if c, l, h := s.reg.SeriesCounts(); c != len(s.ctr) || l != len(s.lvl) || h != len(s.hst) {
		s.rescan()
	}
	c0, l0, h0 := len(s.cds), len(s.lss), len(s.hds)
	for i := range s.ctr {
		t := &s.ctr[i]
		if v := t.c.Value(); v != t.prev {
			s.cds = append(s.cds, cdelta{series: int32(i), delta: v - t.prev})
			t.prev = v
		}
	}
	for i := range s.lvl {
		t := &s.lvl[i]
		if v := t.l.Value(); !t.seen || v != t.last {
			s.lss = append(s.lss, lsample{series: int32(i), value: v})
			t.last, t.seen = v, true
		}
	}
	for i := range s.hst {
		t := &s.hst[i]
		n, sum := t.h.Count(), t.h.Sum()
		if n == t.prevN {
			continue
		}
		b0 := len(s.buckets)
		for j, c := range t.h.BucketCounts() {
			s.buckets = append(s.buckets, c-t.prevBuckets[j])
			t.prevBuckets[j] = c
		}
		s.hds = append(s.hds, hdelta{series: int32(i), dn: n - t.prevN, dsum: sum - t.prevSum, b0: int32(b0)})
		t.prevN, t.prevSum = n, sum
	}
	s.windows = append(s.windows, windowHdr{
		start: start, end: end,
		c0: c0, c1: len(s.cds),
		l0: l0, l1: len(s.lss),
		h0: h0, h1: len(s.hds),
	})
	if s.onWindow != nil {
		s.onWindow(len(s.windows) - 1)
	}
}

// WindowBounds returns the cycle range (start, end] of stored window idx.
func (s *Sampler) WindowBounds(idx int) (start, end uint64) {
	w := &s.windows[idx]
	return w.start, w.end
}

// CounterSeries returns the number of tracked counter series; CounterKeyAt
// returns the key of series i. Series ids are stable across rescans, so a
// consumer can cache per-series state and refresh only when the count grows.
func (s *Sampler) CounterSeries() int           { return len(s.ctr) }
func (s *Sampler) CounterKeyAt(i int) obs.Key   { return s.ctrKeys[i] }
func (s *Sampler) HistogramSeries() int         { return len(s.hst) }
func (s *Sampler) HistogramKeyAt(i int) obs.Key { return s.hstKeys[i] }

// EachWindowCounter calls fn for every counter that moved in stored window
// idx, in tracking (series id) order. It allocates nothing; fn must not
// mutate the sampler.
func (s *Sampler) EachWindowCounter(idx int, fn func(series int, delta uint64)) {
	w := &s.windows[idx]
	for _, d := range s.cds[w.c0:w.c1] {
		fn(int(d.series), d.delta)
	}
}

// EachWindowHistogram calls fn for every histogram that observed values in
// stored window idx, in tracking order, with the window's own bucket-count
// deltas (aligned to bounds, plus the trailing overflow bucket). It
// allocates nothing; fn must not mutate the sampler or retain the slices.
func (s *Sampler) EachWindowHistogram(idx int, fn func(series int, dn, dsum uint64, bounds, buckets []uint64)) {
	w := &s.windows[idx]
	for _, d := range s.hds[w.h0:w.h1] {
		bounds := s.hst[d.series].h.Bounds()
		fn(int(d.series), d.dn, d.dsum, bounds, s.buckets[d.b0:int(d.b0)+len(bounds)+1])
	}
}

// rescan folds newly created registry series into the tracked set (cold
// path). New series baseline at zero so their whole history lands in the
// window that discovers them — deltas still sum to totals. Appended keys
// arrive in the registry's deterministic export order, so tracking order
// (and with it every arena and export) is deterministic too.
func (s *Sampler) rescan() {
	for _, k := range s.reg.CounterKeys() {
		if _, ok := s.ctrIdx[k]; ok {
			continue
		}
		s.ctrIdx[k] = int32(len(s.ctr))
		s.ctr = append(s.ctr, ctrack{c: s.reg.Counter(k)})
		s.ctrKeys = append(s.ctrKeys, k)
		s.ctrNames = append(s.ctrNames, k.String())
	}
	for _, k := range s.reg.LevelKeys() {
		if _, ok := s.lvlIdx[k]; ok {
			continue
		}
		s.lvlIdx[k] = int32(len(s.lvl))
		s.lvl = append(s.lvl, ltrack{l: s.reg.Level(k)})
		s.lvlNames = append(s.lvlNames, k.String())
	}
	for _, k := range s.reg.HistogramKeys() {
		if _, ok := s.hstIdx[k]; ok {
			continue
		}
		h := s.reg.Histogram(k, nil)
		s.hstIdx[k] = int32(len(s.hst))
		s.hst = append(s.hst, htrack{h: h, prevBuckets: make([]uint64, len(h.BucketCounts()))})
		s.hstKeys = append(s.hstKeys, k)
		s.hstNames = append(s.hstNames, k.String())
	}
}

// Reconcile audits the closed timeline against the registry: every counter
// and histogram's per-window deltas must sum exactly to its end-of-run
// total, every level's last stored sample must equal its current value,
// and no series may have appeared after the flush. It refuses unflushed or
// window-dropping samplers — their timelines are knowingly partial.
func (s *Sampler) Reconcile() error {
	if s.dropped > 0 {
		return fmt.Errorf("timeline: %d windows dropped at the %d-window cap; totals cannot reconcile", s.dropped, s.maxWindows)
	}
	if !s.flushed {
		return fmt.Errorf("timeline: sampler not flushed; the open window's deltas are unaccounted")
	}
	if c, l, h := s.reg.SeriesCounts(); c != len(s.ctr) || l != len(s.lvl) || h != len(s.hst) {
		return fmt.Errorf("timeline: registry grew after flush (%d/%d/%d series tracked, %d/%d/%d present)",
			len(s.ctr), len(s.lvl), len(s.hst), c, l, h)
	}
	csum := make([]uint64, len(s.ctr))
	for _, d := range s.cds {
		csum[d.series] += d.delta
	}
	for i := range s.ctr {
		if got, want := csum[i], s.ctr[i].c.Value(); got != want {
			return fmt.Errorf("timeline: counter %s: window deltas sum to %d, registry total %d", s.ctrNames[i], got, want)
		}
	}
	for i := range s.lvl {
		t := &s.lvl[i]
		if !t.seen || t.last != t.l.Value() {
			return fmt.Errorf("timeline: level %s: last sample %d (seen=%v), registry value %d", s.lvlNames[i], t.last, t.seen, t.l.Value())
		}
	}
	hn := make([]uint64, len(s.hst))
	hsum := make([]uint64, len(s.hst))
	for _, d := range s.hds {
		hn[d.series] += d.dn
		hsum[d.series] += d.dsum
	}
	for i := range s.hst {
		t := &s.hst[i]
		if hn[i] != t.h.Count() || hsum[i] != t.h.Sum() {
			return fmt.Errorf("timeline: histogram %s: window deltas sum to n=%d sum=%d, registry n=%d sum=%d",
				s.hstNames[i], hn[i], hsum[i], t.h.Count(), t.h.Sum())
		}
	}
	return nil
}
