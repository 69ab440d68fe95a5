package cost

import (
	"fmt"
	"sort"
	"strings"
)

// Gauge accumulates dynamic instruction counts along the paper's three axes
// (role × feature × category) together with Table 1 subcategory detail
// (role × sub × category). It is the software analogue of the authors'
// assembly-level instruction counting.
//
// A Gauge is not safe for concurrent use; the simulation harness is
// single-threaded and deterministic by design.
type Gauge struct {
	counts [NumRoles][NumFeatures][NumCategories]uint64
	subs   [NumRoles][NumSubs][NumCategories]uint64
	events []eventCount // in first-seen order; a node sees a few dozen names
}

// eventCount is one named event's occurrence count.
type eventCount struct {
	name string
	n    uint64
}

// NewGauge returns an empty gauge.
func NewGauge() *Gauge { return &Gauge{} }

// gaugeEvents is the event-name room NewGauges gives each gauge up front:
// a node of one transfer sees fewer names.
const gaugeEvents = 8

// NewGauges returns n empty gauges in one allocation, their first
// gaugeEvents event counts in a second.
func NewGauges(n int) []Gauge {
	gs := make([]Gauge, n)
	events := make([]eventCount, n*gaugeEvents)
	for i := range gs {
		gs[i].events = events[i*gaugeEvents : i*gaugeEvents : (i+1)*gaugeEvents]
	}
	return gs
}

// event returns the count slot for a name, adding it if absent.
func (g *Gauge) event(name string) *uint64 {
	for i := range g.events {
		if g.events[i].name == name {
			return &g.events[i].n
		}
	}
	g.events = append(g.events, eventCount{name: name})
	return &g.events[len(g.events)-1].n
}

// Charge records a bundle of instruction items against (role, feature).
func (g *Gauge) Charge(r Role, f Feature, items Items) {
	for _, it := range items {
		g.counts[r][f][it.Cat] += it.N
		g.subs[r][it.Sub][it.Cat] += it.N
	}
}

// ChargeVec records a bare per-category vector against (role, feature),
// attributing it to the Bookkeeping subcategory. Prefer Charge with explicit
// subcategories for anything that appears in Table 1.
func (g *Gauge) ChargeVec(r Role, f Feature, v Vec) {
	g.counts[r][f][Reg] += v.Reg
	g.counts[r][f][Mem] += v.Mem
	g.counts[r][f][Dev] += v.Dev
	g.subs[r][SubBookkeeping][Reg] += v.Reg
	g.subs[r][SubBookkeeping][Mem] += v.Mem
	g.subs[r][SubBookkeeping][Dev] += v.Dev
}

// CountEvent records that a named protocol event occurred (packet sent, ack
// received, out-of-order arrival, ...). Events do not contribute to
// instruction counts; they let tests and reports explain where counts came
// from.
func (g *Gauge) CountEvent(name string) { *g.event(name)++ }

// Events returns the number of occurrences of a named event.
func (g *Gauge) Events(name string) uint64 {
	for _, e := range g.events {
		if e.name == name {
			return e.n
		}
	}
	return 0
}

// EventNames returns all recorded event names in sorted order.
func (g *Gauge) EventNames() []string {
	names := make([]string, 0, len(g.events))
	for _, e := range g.events {
		names = append(names, e.name)
	}
	sort.Strings(names)
	return names
}

// Cell returns the per-category vector for one (role, feature) cell.
func (g *Gauge) Cell(r Role, f Feature) Vec {
	c := g.counts[r][f]
	return Vec{Reg: c[Reg], Mem: c[Mem], Dev: c[Dev]}
}

// RoleTotal returns the per-category vector summed over all features for one
// role — a Table 2 column total.
func (g *Gauge) RoleTotal(r Role) Vec {
	var v Vec
	for _, f := range Features() {
		v = v.Add(g.Cell(r, f))
	}
	return v
}

// FeatureTotal returns the per-category vector summed over both roles for
// one feature — a Table 2 row total.
func (g *Gauge) FeatureTotal(f Feature) Vec {
	return g.Cell(Source, f).Add(g.Cell(Destination, f))
}

// Total returns the per-category vector summed over everything.
func (g *Gauge) Total() Vec {
	var v Vec
	for _, r := range Roles() {
		v = v.Add(g.RoleTotal(r))
	}
	return v
}

// SubCell returns the per-category vector for one (role, subcategory) cell —
// a Table 1 row.
func (g *Gauge) SubCell(r Role, s Sub) Vec {
	c := g.subs[r][s]
	return Vec{Reg: c[Reg], Mem: c[Mem], Dev: c[Dev]}
}

// Add accumulates counts and events from another gauge.
func (g *Gauge) Add(other *Gauge) {
	for r := 0; r < NumRoles; r++ {
		for f := 0; f < NumFeatures; f++ {
			for c := 0; c < NumCategories; c++ {
				g.counts[r][f][c] += other.counts[r][f][c]
			}
		}
		for s := 0; s < NumSubs; s++ {
			for c := 0; c < NumCategories; c++ {
				g.subs[r][s][c] += other.subs[r][s][c]
			}
		}
	}
	for _, e := range other.events {
		*g.event(e.name) += e.n
	}
}

// Reset zeroes the gauge.
func (g *Gauge) Reset() {
	*g = Gauge{}
}

// Snapshot returns a deep copy of the gauge.
func (g *Gauge) Snapshot() *Gauge {
	c := NewGauge()
	c.Add(g)
	return c
}

// Diff returns a new gauge holding g minus a previous snapshot. It panics if
// any cell would underflow (snapshot not taken from this gauge's past).
func (g *Gauge) Diff(prev *Gauge) *Gauge {
	d := NewGauge()
	for r := 0; r < NumRoles; r++ {
		for f := 0; f < NumFeatures; f++ {
			for c := 0; c < NumCategories; c++ {
				a, b := g.counts[r][f][c], prev.counts[r][f][c]
				if b > a {
					panic("cost: Diff underflow")
				}
				d.counts[r][f][c] = a - b
			}
		}
		for s := 0; s < NumSubs; s++ {
			for c := 0; c < NumCategories; c++ {
				a, b := g.subs[r][s][c], prev.subs[r][s][c]
				if b > a {
					panic("cost: Diff underflow")
				}
				d.subs[r][s][c] = a - b
			}
		}
	}
	for _, e := range g.events {
		if p := prev.Events(e.name); e.n > p {
			d.events = append(d.events, eventCount{e.name, e.n - p})
		}
	}
	return d
}

// Weighted returns the model-weighted cycle estimate of the whole gauge.
func (g *Gauge) Weighted(m Model) uint64 { return m.Cost(g.Total()) }

// String renders a compact feature × role summary, mainly for debugging and
// error messages; reports use internal/report for paper-layout tables.
func (g *Gauge) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %12s %10s\n", "Feature", "Source", "Destination", "Total")
	for _, f := range Features() {
		src := g.Cell(Source, f).Total()
		dst := g.Cell(Destination, f).Total()
		fmt.Fprintf(&b, "%-14s %10d %12d %10d\n", f, src, dst, src+dst)
	}
	src := g.RoleTotal(Source).Total()
	dst := g.RoleTotal(Destination).Total()
	fmt.Fprintf(&b, "%-14s %10d %12d %10d", "Total", src, dst, src+dst)
	return b.String()
}
