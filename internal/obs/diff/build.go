package diff

import (
	"fmt"
	"sort"
	"strings"

	"msglayer/internal/obs"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/perfreg"
)

// linkMetric is the per-router-port utilization counter the flit engine
// bumps at every flit move; its series partition the engine's flit-move
// total exactly, so they get their own waterfall instead of drowning in
// the general counter section.
const linkMetric = "flitnet_link_flits_total"

// Run is one side of a live comparison: the artifacts a tool holds
// in-process (as opposed to the file artifacts CompareArtifacts loads).
type Run struct {
	Label string
	// Metrics is the run's registry export (obs.Registry.JSONMetrics).
	Metrics []obs.JSONMetric
	// Timeline is the run's windowed metrics timeline, when sampled.
	Timeline *timeline.Timeline
	// FlitMoves, when nonzero on both sides, is the flit engine's own
	// move total; the per-link counters must partition it exactly, which
	// turns the links section into a genuine completeness proof.
	FlitMoves uint64
}

// CompareRuns builds the differential attribution between two in-process
// runs: metric deltas, per-link utilization deltas, histogram quantile
// shifts, and (when both runs carry timelines) per-phase deltas.
func CompareRuns(a, b Run) *Report {
	r := newReport("run", a.Label, b.Label)
	var flitTotal *[2]uint64
	if a.FlitMoves != 0 || b.FlitMoves != 0 {
		flitTotal = &[2]uint64{a.FlitMoves, b.FlitMoves}
	}
	metricsSections(r, "", a.Metrics, b.Metrics, flitTotal)
	if a.Timeline != nil && b.Timeline != nil {
		timelineSections(r, "timeline/", a.Timeline, b.Timeline)
	} else if a.Timeline != nil {
		r.OnlyA = append(r.OnlyA, "timeline")
	} else if b.Timeline != nil {
		r.OnlyB = append(r.OnlyB, "timeline")
	}
	return r
}

// CompareRunGrid builds the differential attribution between two aligned
// grids of in-process runs (e.g. netload's per-load sweep points, baseline
// routing on one side and CR on the other). Each aligned key contributes
// its full run comparison under a "<key>/" section prefix; one-sided keys
// are declared in the asymmetry lists.
func CompareRunGrid(aLabel, bLabel string, a, b map[string]Run) *Report {
	r := newReport("run-grid", aLabel, bLabel)
	for _, key := range unionKeys(a, b) {
		ra, inA := a[key]
		rb, inB := b[key]
		switch {
		case !inA:
			r.OnlyB = append(r.OnlyB, "point "+key)
			continue
		case !inB:
			r.OnlyA = append(r.OnlyA, "point "+key)
			continue
		}
		var flitTotal *[2]uint64
		if ra.FlitMoves != 0 || rb.FlitMoves != 0 {
			flitTotal = &[2]uint64{ra.FlitMoves, rb.FlitMoves}
		}
		metricsSections(r, key+"/", ra.Metrics, rb.Metrics, flitTotal)
		switch {
		case ra.Timeline != nil && rb.Timeline != nil:
			timelineSections(r, key+"/timeline/", ra.Timeline, rb.Timeline)
		case ra.Timeline != nil:
			r.OnlyA = append(r.OnlyA, "timeline "+key)
		case rb.Timeline != nil:
			r.OnlyB = append(r.OnlyB, "timeline "+key)
		}
	}
	return r
}

// CompareMetrics builds the differential attribution between two metrics
// JSON exports.
func CompareMetrics(aLabel, bLabel string, a, b []obs.JSONMetric) *Report {
	r := newReport("metrics", aLabel, bLabel)
	metricsSections(r, "", a, b, nil)
	return r
}

// metricKey reconstructs the registry key string of an exported metric.
func metricKey(m obs.JSONMetric) string {
	node := -1
	if m.Node != nil {
		node = *m.Node
	}
	return obs.Key{Name: m.Name, Node: node, Proto: m.Proto, Event: m.Event}.String()
}

// metricsSections appends the counter, link, gauge, and quantile-shift
// comparisons of two registry exports. flitTotal, when set, pins the links
// section to the engine-recorded move totals.
func metricsSections(r *Report, prefix string, a, b []obs.JSONMetric, flitTotal *[2]uint64) {
	type side struct {
		counters map[string]int64
		links    map[string]int64
		gauges   map[string]int64
		hists    map[string]obs.JSONMetric
	}
	index := func(ms []obs.JSONMetric) side {
		s := side{
			counters: make(map[string]int64),
			links:    make(map[string]int64),
			gauges:   make(map[string]int64),
			hists:    make(map[string]obs.JSONMetric),
		}
		for _, m := range ms {
			k := metricKey(m)
			switch m.Kind {
			case "counter":
				if m.Name == linkMetric {
					s.links[k] = m.Value
				} else {
					s.counters[k] = m.Value
				}
			case "gauge":
				s.gauges[k] = m.Value
			case "histogram":
				s.hists[k] = m
			}
		}
		return s
	}
	sa, sb := index(a), index(b)

	counters := newSection(prefix+"counters", "events")
	alignInt(counters, sa.counters, sb.counters)
	r.addSection(counters)

	links := newSection(prefix+"links", "flits")
	alignInt(links, sa.links, sb.links)
	if flitTotal != nil {
		links.total(prefix+"stats/flit_moves", int64(flitTotal[0]), int64(flitTotal[1]))
	}
	r.addSection(links)

	gauges := newSection(prefix+"gauges", "value")
	alignInt(gauges, sa.gauges, sb.gauges)
	r.addSection(gauges)

	for _, k := range unionKeys(sa.hists, sb.hists) {
		ha, inA := sa.hists[k]
		hb, inB := sb.hists[k]
		q := QuantileShift{Key: prefix + k}
		switch {
		case !inA:
			q.OnlyIn = "b"
		case !inB:
			q.OnlyIn = "a"
		}
		if inA {
			q.CountA, q.SumA = ha.Count, ha.Sum
			q.P50A, q.P90A, q.P99A = ha.Quantiles["p50"], ha.Quantiles["p90"], ha.Quantiles["p99"]
		}
		if inB {
			q.CountB, q.SumB = hb.Count, hb.Sum
			q.P50B, q.P90B, q.P99B = hb.Quantiles["p50"], hb.Quantiles["p90"], hb.Quantiles["p99"]
		}
		r.Quantiles = append(r.Quantiles, q)
	}
}

// CompareTimelines builds the differential attribution between two
// windowed timelines: phase-regime deltas, per-phase Role×Feature×Category
// shifts, counter and link totals, and gauge endpoints.
func CompareTimelines(aLabel, bLabel string, a, b *timeline.Timeline) *Report {
	r := newReport("timeline", aLabel, bLabel)
	timelineSections(r, "", a, b)
	return r
}

// timelineSections appends one timeline pair's comparison under the given
// section-name prefix.
func timelineSections(r *Report, prefix string, a, b *timeline.Timeline) {
	if a.Interval != b.Interval {
		r.notef("%s: intervals differ (%d vs %d cycles); phase and rate comparisons are not like for like",
			strings.TrimSuffix(prefix, "/"), a.Interval, b.Interval)
	}
	if len(a.Windows) != len(b.Windows) {
		r.notef("%s: window counts differ (%d vs %d)", strings.TrimSuffix(prefix, "/"), len(a.Windows), len(b.Windows))
	}

	// Phase regimes: total activity per phase kind. Every window belongs to
	// exactly one phase, so the four kinds partition the run's events.
	type phaseSide struct {
		events map[string]int64
		cells  map[string]map[string]int64
	}
	phaseIndex := func(tl *timeline.Timeline) phaseSide {
		s := phaseSide{events: make(map[string]int64), cells: make(map[string]map[string]int64)}
		for _, p := range tl.Phases() {
			kind := p.Kind.String()
			s.events[kind] += int64(p.Events)
			cells := s.cells[kind]
			if cells == nil {
				cells = make(map[string]int64)
				s.cells[kind] = cells
			}
			for _, c := range p.Breakdown {
				cells[c.Role+"/"+c.Axis+"/"+c.Category] += int64(c.Events)
			}
		}
		return s
	}
	pa, pb := phaseIndex(a), phaseIndex(b)
	phases := newSection(prefix+"phases", "events")
	for _, kind := range []string{"warmup", "steady", "burst", "drain"} {
		phases.term(kind, pa.events[kind], pb.events[kind], "")
	}
	r.addSection(phases)
	for _, kind := range []string{"warmup", "steady", "burst", "drain"} {
		if pa.events[kind] == 0 && pb.events[kind] == 0 {
			continue
		}
		sec := newSection(prefix+"phase/"+kind, "events")
		alignInt(sec, pa.cells[kind], pb.cells[kind])
		// The breakdown cells cover exactly the protocol events the phase's
		// Events field counts, so the independently aggregated phase total
		// proves the per-cell decomposition complete.
		sec.total(prefix+"phases/"+kind, pa.events[kind], pb.events[kind])
		r.addSection(sec)
	}

	// Counter totals: each series' window deltas summed over the whole run
	// (which the sampler's Reconcile pins to the end-of-run registry
	// totals). Link counters get their own waterfall; gauges compare at
	// their final sampled values; histograms at their windowed populations.
	type seriesSide struct {
		counters map[string]int64
		links    map[string]int64
		gauges   map[string]int64
		histN    map[string]int64
		histSum  map[string]int64
	}
	seriesIndex := func(tl *timeline.Timeline) seriesSide {
		s := seriesSide{
			counters: make(map[string]int64),
			links:    make(map[string]int64),
			gauges:   make(map[string]int64),
			histN:    make(map[string]int64),
			histSum:  make(map[string]int64),
		}
		for _, w := range tl.Windows {
			for _, c := range w.Counters {
				if strings.HasPrefix(c.Key, linkMetric) {
					s.links[c.Key] += int64(c.Delta)
				} else {
					s.counters[c.Key] += int64(c.Delta)
				}
			}
			for _, l := range w.Levels {
				s.gauges[l.Key] = l.Value
			}
			for _, h := range w.Hists {
				s.histN[h.Key] += int64(h.Count)
				s.histSum[h.Key] += int64(h.Sum)
			}
		}
		return s
	}
	ta, tb := seriesIndex(a), seriesIndex(b)
	counters := newSection(prefix+"counters", "events")
	alignInt(counters, ta.counters, tb.counters)
	r.addSection(counters)
	links := newSection(prefix+"links", "flits")
	alignInt(links, ta.links, tb.links)
	r.addSection(links)
	gauges := newSection(prefix+"gauges", "value")
	alignInt(gauges, ta.gauges, tb.gauges)
	r.addSection(gauges)
	hists := newSection(prefix+"hist-counts", "observations")
	alignInt(hists, ta.histN, tb.histN)
	r.addSection(hists)
	histSums := newSection(prefix+"hist-sums", "sum")
	alignInt(histSums, ta.histSum, tb.histSum)
	r.addSection(histSums)

	r.Digests = append(r.Digests, DigestDelta{
		Key: prefix + "digest", A: a.Digest, B: b.Digest, Equal: a.Digest == b.Digest,
	})
}

// ComparePerfreg builds the differential attribution between two perfreg
// snapshots: per-scenario Role×Feature×Category instruction waterfalls
// (reconciled against the independently recorded instr/total), the
// remaining deterministic sim metrics, timeline digests, and the
// allocation benchmarks. Every input is deterministic: snapshots carry no
// host wall-clock samples (perfbench measures host time), and the
// benchmarks contribute only their allocs/op.
func ComparePerfreg(a, b *perfreg.Snapshot) *Report {
	r := newReport("perfreg", label(a.Label, "A"), label(b.Label, "B"))
	if a.Words != b.Words {
		r.notef("transfer sizes differ (%d vs %d words); instruction deltas include the size change", a.Words, b.Words)
	}
	if a.NetloadCycles != b.NetloadCycles {
		r.notef("netload measurement lengths differ (%d vs %d cycles)", a.NetloadCycles, b.NetloadCycles)
	}
	byName := func(s *perfreg.Snapshot) map[string]map[string]uint64 {
		m := make(map[string]map[string]uint64, len(s.Scenarios))
		for i := range s.Scenarios {
			m[s.Scenarios[i].Name] = s.Scenarios[i].Sim
		}
		return m
	}
	sa, sb := byName(a), byName(b)
	for _, name := range unionKeys(sa, sb) {
		simA, inA := sa[name]
		simB, inB := sb[name]
		switch {
		case !inA:
			r.OnlyB = append(r.OnlyB, "scenario "+name)
			continue
		case !inB:
			r.OnlyA = append(r.OnlyA, "scenario "+name)
			continue
		}
		scenarioSections(r, name, simA, simB)
	}
	benches := newSection("bench/allocs", "allocs/op")
	ba, bb := make(map[string]int64), make(map[string]int64)
	for _, bench := range a.Benches {
		ba[bench.Name] = bench.AllocsPerOp
	}
	for _, bench := range b.Benches {
		bb[bench.Name] = bench.AllocsPerOp
	}
	alignInt(benches, ba, bb)
	r.addSection(benches)
	return r
}

// scenarioSections splits one scenario's flat sim map into the instruction
// waterfall (pinned to instr/total), the digest identities, and the
// remaining deterministic counters.
func scenarioSections(r *Report, name string, simA, simB map[string]uint64) {
	instr := newSection(name+"/instr", "instructions")
	rest := newSection(name+"/sim", "count")
	var instrAny bool
	for _, k := range unionKeys(simA, simB) {
		va, inA := simA[k]
		vb, inB := simB[k]
		only := ""
		switch {
		case !inA:
			only = "b"
		case !inB:
			only = "a"
		}
		switch {
		case strings.Contains(k, "digest"):
			r.Digests = append(r.Digests, DigestDelta{
				Key: name + "/" + k,
				A:   digestStr(va, inA), B: digestStr(vb, inB),
				Equal: inA && inB && va == vb,
			})
		case k == "instr/total":
			instr.total(name+"/instr/total", int64(va), int64(vb))
			instrAny = true
		case strings.HasPrefix(k, "instr/"):
			instr.term(strings.TrimPrefix(k, "instr/"), int64(va), int64(vb), only)
			instrAny = true
		default:
			rest.term(k, int64(va), int64(vb), only)
		}
	}
	if instrAny {
		r.addSection(instr)
	}
	r.addSection(rest)
}

// digestStr renders a digest value in the hex form timeline exports use;
// absent digests render as "-".
func digestStr(v uint64, present bool) string {
	if !present {
		return "-"
	}
	return fmt.Sprintf("%016x", v)
}

// label falls back when a snapshot carries no label.
func label(l, fallback string) string {
	if l == "" {
		return fallback
	}
	return l
}

// alignInt feeds the union of two keyed value maps into a section,
// marking one-sided keys.
func alignInt(sec *sectionBuilder, a, b map[string]int64) {
	for _, k := range unionKeys(a, b) {
		va, inA := a[k]
		vb, inB := b[k]
		only := ""
		switch {
		case !inA:
			only = "b"
		case !inB:
			only = "a"
		}
		sec.term(k, va, vb, only)
	}
}

// unionKeys returns the sorted union of two maps' keys.
func unionKeys[VA, VB any](a map[string]VA, b map[string]VB) []string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
