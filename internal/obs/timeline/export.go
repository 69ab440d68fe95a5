package timeline

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"msglayer/internal/critpath"
	"msglayer/internal/obs"
)

// SchemaVersion identifies the exported timeline layout.
const SchemaVersion = 1

// Timeline is the exportable form of a sampler's closed windows. All
// content is derived from simulated time and the registry's deterministic
// ordering, so two runs of the same scenario marshal byte-identically.
type Timeline struct {
	Schema   int      `json:"schema"`
	Interval uint64   `json:"interval"`
	Windows  []Window `json:"windows"`
	Dropped  uint64   `json:"dropped,omitempty"`
	// Quantiles lists the windowed histogram quantiles beyond the default
	// p50/p90/p99 set (today: "p999" when Config.Quantile999 is set). Empty
	// for default-configured samplers, keeping their marshaled form and
	// digest identical to earlier schema-1 timelines.
	Quantiles []string `json:"quantiles,omitempty"`
	// Digest is the FNV-1a 64 hash of the timeline content, rendered in
	// hex; DigestValue is the same hash as a number (for perfreg
	// snapshots), excluded from the marshaled form.
	Digest      string `json:"digest"`
	DigestValue uint64 `json:"-"`
}

// Window is one closed sampling window: the cycle range (start, end] and
// every series that moved in it. Unchanged series are omitted, so idle
// windows are empty.
type Window struct {
	Index     int             `json:"index"`
	Start     uint64          `json:"start"`
	End       uint64          `json:"end"`
	Events    uint64          `json:"events"`
	Counters  []CounterDelta  `json:"counters,omitempty"`
	Levels    []LevelSample   `json:"levels,omitempty"`
	Hists     []HistDelta     `json:"hists,omitempty"`
	Breakdown []BreakdownCell `json:"breakdown,omitempty"`
}

// CounterDelta is one counter's increment within a window, with its rate
// in integer events per thousand cycles (exact division by the window
// width, so it carries no float formatting into the byte-compared output).
type CounterDelta struct {
	Key           string `json:"key"`
	Delta         uint64 `json:"delta"`
	RatePerKCycle uint64 `json:"rate_per_kcycle"`
}

// LevelSample is a gauge's value at the window close. Windows where the
// gauge did not change carry no sample; the last stored value holds.
type LevelSample struct {
	Key   string `json:"key"`
	Value int64  `json:"value"`
}

// HistDelta is one histogram's within-window activity, with quantiles of
// the window's own observations (not the cumulative distribution),
// resolved from the bucket-count deltas. Quantile ranks falling in the
// +Inf overflow bucket report the last finite bound — a lower bound, since
// the window's true maximum is not tracked.
type HistDelta struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	P50   uint64 `json:"p50"`
	P90   uint64 `json:"p90"`
	P99   uint64 `json:"p99"`
	// P999 is populated (and folded into the digest) only when the sampler
	// was configured with Quantile999; see Timeline.Quantiles.
	P999 uint64 `json:"p999,omitempty"`
}

// BreakdownCell is one Role×Feature×Category aggregate of a window's
// protocol events, the per-window form of critpath's attribution table.
// Role here is a static heuristic over the event's node label (negative =
// network, node 0 = source, otherwise destination — the canonical
// experiments originate at node 0), not the per-message reconstruction
// critpath performs; Category classifies the event name alone.
type BreakdownCell struct {
	Role     string `json:"role"`
	Axis     string `json:"axis"`
	Category string `json:"category"`
	Events   uint64 `json:"events"`
}

// Snapshot renders the closed windows into their exportable form and
// computes the digest. It is a cold path and allocates freely.
func (s *Sampler) Snapshot() *Timeline {
	tl := &Timeline{
		Schema:   SchemaVersion,
		Interval: s.interval,
		Windows:  make([]Window, 0, len(s.windows)),
		Dropped:  s.dropped,
	}
	if s.q999 {
		tl.Quantiles = []string{"p999"}
	}
	for wi := range s.windows {
		tl.Windows = append(tl.Windows, s.SnapshotWindow(wi))
	}
	tl.DigestValue = tl.digest()
	tl.Digest = fmt.Sprintf("%016x", tl.DigestValue)
	return tl
}

// SnapshotWindow renders one stored window into its exportable form. Like
// Snapshot it is a cold path and allocates freely; the SLO monitor uses it
// to materialize just the pre-violation and violation windows for blame.
func (s *Sampler) SnapshotWindow(wi int) Window {
	w := s.windows[wi]
	win := Window{Index: wi, Start: w.start, End: w.end}
	if w.c1 > w.c0 {
		win.Counters = make([]CounterDelta, 0, w.c1-w.c0)
	}
	if w.l1 > w.l0 {
		win.Levels = make([]LevelSample, 0, w.l1-w.l0)
	}
	if w.h1 > w.h0 {
		win.Hists = make([]HistDelta, 0, w.h1-w.h0)
	}
	width := w.end - w.start
	cells := make(map[cellKey]uint64)
	for _, d := range s.cds[w.c0:w.c1] {
		k := s.ctrKeys[d.series]
		win.Counters = append(win.Counters, CounterDelta{
			Key:           s.ctrNames[d.series],
			Delta:         d.delta,
			RatePerKCycle: d.delta * 1000 / width,
		})
		if k.Name == "protocol_events_total" {
			win.Events += d.delta
			cells[cellOf(k)] += d.delta
		}
	}
	for _, l := range s.lss[w.l0:w.l1] {
		win.Levels = append(win.Levels, LevelSample{Key: s.lvlNames[l.series], Value: l.value})
	}
	for _, h := range s.hds[w.h0:w.h1] {
		bounds := s.hst[h.series].h.Bounds()
		buckets := s.buckets[h.b0 : int(h.b0)+len(bounds)+1]
		hd := HistDelta{
			Key:   s.hstNames[h.series],
			Count: h.dn,
			Sum:   h.dsum,
			P50:   QuantileFromDeltas(bounds, buckets, h.dn, 0.50),
			P90:   QuantileFromDeltas(bounds, buckets, h.dn, 0.90),
			P99:   QuantileFromDeltas(bounds, buckets, h.dn, 0.99),
		}
		if s.q999 {
			hd.P999 = QuantileFromDeltas(bounds, buckets, h.dn, 0.999)
		}
		win.Hists = append(win.Hists, hd)
	}
	win.Breakdown = breakdownCells(cells)
	sort.Slice(win.Counters, func(i, j int) bool { return win.Counters[i].Key < win.Counters[j].Key })
	sort.Slice(win.Levels, func(i, j int) bool { return win.Levels[i].Key < win.Levels[j].Key })
	sort.Slice(win.Hists, func(i, j int) bool { return win.Hists[i].Key < win.Hists[j].Key })
	return win
}

// cellKey aggregates breakdown cells in a deterministic numeric order.
type cellKey struct {
	role critpath.Role
	axis obs.Axis
	cat  critpath.Category
}

// cellOf classifies one protocol_events_total series key.
func cellOf(k obs.Key) cellKey {
	role := critpath.RoleDest
	switch {
	case k.Node < 0:
		role = critpath.RoleNetwork
	case k.Node == 0:
		role = critpath.RoleSource
	}
	return cellKey{role: role, axis: obs.AxisForEvent(k.Event), cat: critpath.ClassifyName(k.Event)}
}

// breakdownCells renders the aggregation map in role, axis, category order.
func breakdownCells(cells map[cellKey]uint64) []BreakdownCell {
	if len(cells) == 0 {
		return nil
	}
	keys := make([]cellKey, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.role != b.role {
			return a.role < b.role
		}
		if a.axis != b.axis {
			return a.axis < b.axis
		}
		return a.cat < b.cat
	})
	out := make([]BreakdownCell, 0, len(keys))
	for _, k := range keys {
		out = append(out, BreakdownCell{
			Role:     k.role.String(),
			Axis:     k.axis.String(),
			Category: k.cat.String(),
			Events:   cells[k],
		})
	}
	return out
}

// QuantileFromDeltas is Histogram.Quantile over one window's bucket-count
// deltas: the smallest bound whose cumulative windowed count covers rank
// ceil(q*n). Overflow ranks report the last finite bound (the window's
// true maximum is not tracked). Exported so the SLO monitor evaluates
// live windows with exactly the arithmetic the exported timeline carries.
func QuantileFromDeltas(bounds, buckets []uint64, n uint64, q float64) uint64 {
	if n == 0 {
		return 0
	}
	if !(q >= 0) {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank == 0 {
		rank = 1
	}
	var acc uint64
	for i, c := range buckets {
		acc += c
		if acc >= rank {
			if i < len(bounds) {
				return bounds[i]
			}
			break
		}
	}
	return bounds[len(bounds)-1]
}

// FNV-1a 64 parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type fnv64 uint64

func (h *fnv64) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= fnvPrime
		v >>= 8
	}
	*h = fnv64(x)
}

func (h *fnv64) str(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= fnvPrime
	}
	*h = fnv64(x)
	h.u64(uint64(len(s)))
}

// digest hashes the timeline content (FNV-1a 64). Breakdown cells are
// derived from the counters and excluded. Extended quantiles (and their
// marker list) are hashed only when present, so default-configured
// timelines keep their historical digests.
func (tl *Timeline) digest() uint64 {
	h := fnv64(fnvOffset)
	h.u64(uint64(tl.Schema))
	h.u64(tl.Interval)
	h.u64(tl.Dropped)
	h.u64(uint64(len(tl.Windows)))
	extended := len(tl.Quantiles) > 0
	if extended {
		for _, q := range tl.Quantiles {
			h.str(q)
		}
	}
	for _, w := range tl.Windows {
		h.u64(w.Start)
		h.u64(w.End)
		for _, c := range w.Counters {
			h.str(c.Key)
			h.u64(c.Delta)
		}
		for _, l := range w.Levels {
			h.str(l.Key)
			h.u64(uint64(l.Value))
		}
		for _, hd := range w.Hists {
			h.str(hd.Key)
			h.u64(hd.Count)
			h.u64(hd.Sum)
			h.u64(hd.P50)
			h.u64(hd.P90)
			h.u64(hd.P99)
			if extended {
				h.u64(hd.P999)
			}
		}
	}
	return uint64(h)
}

// CSVHeader returns the column header for the flat CSV form, with any
// caller columns (scenario identity) prepended.
func CSVHeader(prefix ...string) []string {
	return append(append([]string{}, prefix...),
		"window", "start", "end", "kind", "key", "value", "extra")
}

// AppendCSV writes the timeline's windows as flat CSV rows: one row per
// changed series per window, kind in {counter, level, hist, breakdown}.
// For counters, extra is the rate per thousand cycles; for hists, the
// windowed quantiles. prefix values (scenario identity) lead every row.
func AppendCSV(w *csv.Writer, prefix []string, tl *Timeline) error {
	extended := len(tl.Quantiles) > 0
	row := func(win Window, kind, key, value, extra string) error {
		r := append(append([]string{}, prefix...),
			strconv.Itoa(win.Index),
			strconv.FormatUint(win.Start, 10),
			strconv.FormatUint(win.End, 10),
			kind, key, value, extra)
		return w.Write(r)
	}
	for _, win := range tl.Windows {
		for _, c := range win.Counters {
			if err := row(win, "counter", c.Key, strconv.FormatUint(c.Delta, 10),
				strconv.FormatUint(c.RatePerKCycle, 10)); err != nil {
				return err
			}
		}
		for _, l := range win.Levels {
			if err := row(win, "level", l.Key, strconv.FormatInt(l.Value, 10), ""); err != nil {
				return err
			}
		}
		for _, h := range win.Hists {
			extra := fmt.Sprintf("p50=%d;p90=%d;p99=%d", h.P50, h.P90, h.P99)
			if extended {
				extra += fmt.Sprintf(";p999=%d", h.P999)
			}
			if err := row(win, "hist", h.Key, strconv.FormatUint(h.Count, 10), extra); err != nil {
				return err
			}
		}
		for _, b := range win.Breakdown {
			key := b.Role + "/" + b.Axis + "/" + b.Category
			if err := row(win, "breakdown", key, strconv.FormatUint(b.Events, 10), ""); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV renders the timeline as a standalone CSV document.
func WriteCSV(w io.Writer, tl *Timeline) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader()); err != nil {
		return err
	}
	if err := AppendCSV(cw, nil, tl); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
