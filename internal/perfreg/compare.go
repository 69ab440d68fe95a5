package perfreg

import (
	"fmt"
	"sort"
	"strings"
)

// Delta is one compared metric.
type Delta struct {
	Scenario string `json:"scenario"`
	Metric   string `json:"metric"`
	// Kind is "sim" (exact-equality gate) or "bench" (allocs/op
	// no-regression gate, and the within-snapshot idle speedup).
	Kind string  `json:"kind"`
	Old  float64 `json:"old"`
	New  float64 `json:"new"`
	// Frac is the fractional change (New-Old)/Old.
	Frac float64 `json:"frac,omitempty"`
	OK   bool    `json:"ok"`
	// Note explains the verdict ("exact", "DRIFT +2.00%",
	// "ALLOC REGRESSION 0 -> 1 allocs/op").
	Note string `json:"note"`
}

// Report is a full snapshot comparison.
type Report struct {
	Deltas []Delta `json:"deltas"`
	// Pass is false if any delta failed its gate.
	Pass bool `json:"pass"`
	// SimChecked and SimEqual count the exact-equality comparisons.
	SimChecked int `json:"sim_checked"`
	SimEqual   int `json:"sim_equal"`
}

// Failing returns the deltas that failed their gate, in report order.
func (r *Report) Failing() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if !d.OK {
			out = append(out, d)
		}
	}
	return out
}

// Compare gates a new snapshot against an old one. Sim metrics must match
// exactly, the old snapshot's benches must not grow their allocs/op, and
// the new snapshot's idle fast-forward speedup must clear its floor.
// Snapshots recorded at different sizes are incomparable.
func Compare(oldSnap, newSnap *Snapshot) (*Report, error) {
	if oldSnap.Words != newSnap.Words || oldSnap.NetloadCycles != newSnap.NetloadCycles {
		return nil, fmt.Errorf("perfreg: snapshots are incomparable: words %d vs %d, netload cycles %d vs %d",
			oldSnap.Words, newSnap.Words, oldSnap.NetloadCycles, newSnap.NetloadCycles)
	}
	rep := &Report{Pass: true}
	newByName := make(map[string]*ScenarioResult, len(newSnap.Scenarios))
	for i := range newSnap.Scenarios {
		newByName[newSnap.Scenarios[i].Name] = &newSnap.Scenarios[i]
	}
	for i := range oldSnap.Scenarios {
		o := &oldSnap.Scenarios[i]
		n, ok := newByName[o.Name]
		if !ok {
			rep.fail(Delta{Scenario: o.Name, Metric: "-", Kind: "sim", Note: "scenario missing from new snapshot"})
			continue
		}
		compareSim(rep, o, n)
	}
	compareBenches(rep, oldSnap.Benches, newSnap.Benches)
	gateIdleSpeedup(rep, newSnap.Benches)
	return rep, nil
}

// idleSpeedupFloor is the minimum ratio of dense-reference to event-driven
// idle tick cost. ns/op is never compared across snapshots, but this ratio
// compares two benches recorded in the same run on the same machine, so
// wall-clock is meaningful: the event engine fast-forwards an idle mesh in
// O(1) while the dense scan pays the full topology walk, a gap that is
// orders of magnitude in practice. Dropping under 10x means the fast-forward stopped engaging.
const idleSpeedupFloor = 10.0

// gateIdleSpeedup holds the new snapshot's idle fast-forward speedup to the
// floor. Snapshots recorded before schema 3 lack the benches and pass.
func gateIdleSpeedup(rep *Report, benches []BenchResult) {
	var idle, dense *BenchResult
	for i := range benches {
		switch benches[i].Name {
		case BenchTickIdle:
			idle = &benches[i]
		case BenchTickIdleDense:
			dense = &benches[i]
		}
	}
	if idle == nil || dense == nil {
		return
	}
	d := Delta{
		Scenario: "bench", Metric: "idle-fast-forward-speedup", Kind: "bench",
		Old: dense.NsPerOp, New: idle.NsPerOp,
	}
	if idle.NsPerOp <= 0 {
		d.Note = fmt.Sprintf("unmeasurable: %s recorded %.0f ns/op", BenchTickIdle, idle.NsPerOp)
		rep.fail(d)
		return
	}
	speedup := dense.NsPerOp / idle.NsPerOp
	if speedup < idleSpeedupFloor {
		d.Note = fmt.Sprintf("IDLE SPEEDUP %.1fx < %.0fx floor (dense %.0f ns/op, event %.0f ns/op)",
			speedup, idleSpeedupFloor, dense.NsPerOp, idle.NsPerOp)
		rep.fail(d)
		return
	}
	d.OK = true
	d.Note = fmt.Sprintf("idle fast-forward %.0fx over dense reference (floor %.0fx)", speedup, idleSpeedupFloor)
	rep.Deltas = append(rep.Deltas, d)
}

// fail appends a failing delta and clears the verdict.
func (r *Report) fail(d Delta) {
	d.OK = false
	r.Deltas = append(r.Deltas, d)
	r.Pass = false
}

// compareSim gates every deterministic metric at exact equality.
func compareSim(rep *Report, o, n *ScenarioResult) {
	keys := make([]string, 0, len(o.Sim))
	for k := range o.Sim {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rep.SimChecked++
		ov := o.Sim[k]
		nv, ok := n.Sim[k]
		d := Delta{Scenario: o.Name, Metric: k, Kind: "sim", Old: float64(ov), New: float64(nv)}
		switch {
		case !ok:
			d.Note = "metric missing from new snapshot"
			rep.fail(d)
		case ov != nv:
			d.Frac = frac(float64(ov), float64(nv))
			d.Note = fmt.Sprintf("DRIFT %+.2f%% (sim metrics must match exactly)", 100*d.Frac)
			rep.fail(d)
		default:
			d.OK = true
			d.Note = "exact"
			rep.SimEqual++
			rep.Deltas = append(rep.Deltas, d)
		}
	}
	// New metrics are informational: the usual cause is a new snapshot
	// recorded by newer code, which the gate should not punish.
	for k := range n.Sim {
		if _, ok := o.Sim[k]; !ok {
			rep.Deltas = append(rep.Deltas, Delta{
				Scenario: o.Name, Metric: k, Kind: "sim",
				New: float64(n.Sim[k]), OK: true, Note: "new metric (not gated)",
			})
		}
	}
}

// compareBenches gates the allocation benchmarks: allocs/op must not grow.
// Unlike wall clock, allocs/op is deterministic for these steady-state loops, so the gate is exact — any increase fails, on any
// machine. Benchmarks absent from the old snapshot (recorded by an older
// schema) are informational only.
func compareBenches(rep *Report, oldB, newB []BenchResult) {
	newByName := make(map[string]BenchResult, len(newB))
	for _, b := range newB {
		newByName[b.Name] = b
	}
	for _, o := range oldB {
		n, ok := newByName[o.Name]
		d := Delta{Scenario: "bench", Metric: o.Name, Kind: "bench", Old: float64(o.AllocsPerOp)}
		if !ok {
			d.Note = "bench missing from new snapshot"
			rep.fail(d)
			continue
		}
		d.New = float64(n.AllocsPerOp)
		d.Frac = frac(d.Old, d.New)
		if n.AllocsPerOp > o.AllocsPerOp {
			d.Note = fmt.Sprintf("ALLOC REGRESSION %d -> %d allocs/op", o.AllocsPerOp, n.AllocsPerOp)
			rep.fail(d)
			continue
		}
		d.OK = true
		d.Note = fmt.Sprintf("%d allocs/op (old %d), %.0f ns/op (not gated)", n.AllocsPerOp, o.AllocsPerOp, n.NsPerOp)
		rep.Deltas = append(rep.Deltas, d)
	}
	oldNames := make(map[string]bool, len(oldB))
	for _, o := range oldB {
		oldNames[o.Name] = true
	}
	for _, n := range newB {
		if !oldNames[n.Name] {
			rep.Deltas = append(rep.Deltas, Delta{
				Scenario: "bench", Metric: n.Name, Kind: "bench",
				New: float64(n.AllocsPerOp), OK: true,
				Note: fmt.Sprintf("new bench (not gated): %d allocs/op, %.0f ns/op", n.AllocsPerOp, n.NsPerOp),
			})
		}
	}
}

// frac returns (new-old)/old, saturating when old is zero.
func frac(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 1
	}
	return (new - old) / old
}

// String renders the verdict table: every bench row, every failing or
// informational sim row, and a per-scenario summary of the exact-equality
// checks (printing hundreds of identical sim rows would bury the signal).
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %-28s %14s %14s %10s  %s\n", "scenario", "metric", "old", "new", "delta", "verdict")
	simOK := make(map[string]int)
	for _, d := range r.Deltas {
		if d.Kind == "sim" && d.OK && d.Note == "exact" {
			simOK[d.Scenario]++
			continue
		}
		verdict := "ok"
		if !d.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "%-26s %-28s %14s %14s %+9.2f%%  %s: %s\n",
			d.Scenario, d.Metric, fmt.Sprintf("%.0f", d.Old), fmt.Sprintf("%.0f", d.New), 100*d.Frac, verdict, d.Note)
	}
	scenarios := make([]string, 0, len(simOK))
	for s := range simOK {
		scenarios = append(scenarios, s)
	}
	sort.Strings(scenarios)
	for _, s := range scenarios {
		fmt.Fprintf(&b, "%-26s %-28s %s\n", s, "(sim)", fmt.Sprintf("%d metrics exactly equal", simOK[s]))
	}
	fmt.Fprintf(&b, "sim: %d/%d metrics exactly equal\n", r.SimEqual, r.SimChecked)
	if r.Pass {
		b.WriteString("verdict: PASS\n")
	} else {
		b.WriteString("verdict: FAIL\n")
	}
	return b.String()
}
