package diff

import (
	"fmt"
	"sort"
)

// CritpathDoc mirrors the JSON shape of one critpath analysis
// (critpath.JSON): the exact category decomposition, the per-role and
// per-axis splits, the Role×Proto×Axis cost waterfall, the latency
// quantiles, and the cross-message critical path.
type CritpathDoc struct {
	Messages     int `json:"messages"`
	Unattributed int `json:"unattributed_events"`
	TotalEvents  int `json:"total_events"`
	Latency      struct {
		Mean float64 `json:"mean"`
		P50  uint64  `json:"p50"`
		P90  uint64  `json:"p90"`
		P99  uint64  `json:"p99"`
		Max  uint64  `json:"max"`
	} `json:"latency"`
	ByCategory map[string]uint64 `json:"by_category"`
	ByRole     map[string]uint64 `json:"by_role"`
	ByAxis     map[string]uint64 `json:"work_by_axis"`
	Waterfall  []struct {
		Role  string `json:"role"`
		Proto string `json:"proto"`
		Axis  string `json:"axis"`
		Units uint64 `json:"units"`
	} `json:"waterfall"`
	Critical struct {
		Steps      int               `json:"steps"`
		Span       uint64            `json:"span"`
		ByCategory map[string]uint64 `json:"by_category"`
	} `json:"critical_path"`
}

// check rejects a report whose recorded totals are not the sums of their
// decompositions: work by axis and the waterfall must each sum to the
// work category, and the critical path's categories to its span. A diff
// pins each decomposition to its total, so a report that breaks one could
// never reconcile.
func (d *CritpathDoc) check() error {
	work := d.ByCategory["work"]
	if sum := sumValues(d.ByAxis); sum != work {
		return fmt.Errorf("work_by_axis sums to %d, by_category work %d", sum, work)
	}
	var units uint64
	for _, row := range d.Waterfall {
		units += row.Units
	}
	if units != work {
		return fmt.Errorf("waterfall units sum to %d, by_category work %d", units, work)
	}
	if sum := sumValues(d.Critical.ByCategory); sum != d.Critical.Span {
		return fmt.Errorf("critical_path by_category sums to %d, span %d", sum, d.Critical.Span)
	}
	return nil
}

func sumValues(m map[string]uint64) uint64 {
	var sum uint64
	for _, v := range m {
		sum += v
	}
	return sum
}

// CritpathSet is a keyed collection of critpath analyses: a multi-report
// document (flit grid points by mode and load, as netload -critpath x.json
// writes them, and protocol scenarios by name), or a single report under
// one key, as msgbench -critpath x.json writes it.
type CritpathSet map[string]*CritpathDoc

// CompareCritpath builds the differential attribution between two critpath
// report sets, aligned by report key. Each aligned pair contributes its
// exact category/role decompositions (sum-defined), its work-by-axis and
// Role×Proto×Axis waterfalls (pinned to the independently recorded work
// total), its critical-path composition (pinned to the recorded span), and
// a latency quantile shift.
func CompareCritpath(aLabel, bLabel string, a, b CritpathSet) *Report {
	r := newReport("critpath", aLabel, bLabel)
	for _, key := range unionKeys(a, b) {
		da, inA := a[key]
		db, inB := b[key]
		switch {
		case !inA:
			r.OnlyB = append(r.OnlyB, "report "+key)
			continue
		case !inB:
			r.OnlyA = append(r.OnlyA, "report "+key)
			continue
		}
		critpathSections(r, prefixFor(key, a, b), da, db)
	}
	return r
}

// prefixFor namespaces section names only when the set holds more than one
// report, so single-report diffs read without redundant qualifiers.
func prefixFor(key string, a, b CritpathSet) string {
	if len(a) == 1 && len(b) == 1 {
		return ""
	}
	return key + "/"
}

// critpathSections appends one aligned report pair's comparison.
func critpathSections(r *Report, prefix string, a, b *CritpathDoc) {
	cats := newSection(prefix+"categories", "units")
	alignUint(cats, a.ByCategory, b.ByCategory)
	r.addSection(cats)

	roles := newSection(prefix+"roles", "units")
	alignUint(roles, a.ByRole, b.ByRole)
	r.addSection(roles)

	// Work splits by axis and by Role×Proto×Axis both partition the work
	// category exactly (every work segment carries an axis), so the
	// recorded work total proves each waterfall complete.
	workA, workB := int64(a.ByCategory["work"]), int64(b.ByCategory["work"])
	axes := newSection(prefix+"work-by-axis", "units")
	alignUint(axes, a.ByAxis, b.ByAxis)
	axes.total(prefix+"categories/work", workA, workB)
	r.addSection(axes)

	wf := newSection(prefix+"waterfall", "units")
	wfMap := func(d *CritpathDoc) map[string]int64 {
		m := make(map[string]int64, len(d.Waterfall))
		for _, row := range d.Waterfall {
			m[row.Role+"/"+row.Proto+"/"+row.Axis] += int64(row.Units)
		}
		return m
	}
	alignInt(wf, wfMap(a), wfMap(b))
	wf.total(prefix+"categories/work", workA, workB)
	r.addSection(wf)

	// The critical path's per-category gaps telescope to its span, so the
	// recorded span is an independent total for the composition.
	crit := newSection(prefix+"critical-path", "units")
	alignUint(crit, a.Critical.ByCategory, b.Critical.ByCategory)
	crit.total(prefix+"critical-path/span", int64(a.Critical.Span), int64(b.Critical.Span))
	r.addSection(crit)

	counts := newSection(prefix+"population", "count")
	counts.term("messages", int64(a.Messages), int64(b.Messages), "")
	counts.term("trace-events", int64(a.TotalEvents), int64(b.TotalEvents), "")
	counts.term("unattributed-events", int64(a.Unattributed), int64(b.Unattributed), "")
	counts.term("critical-path-steps", int64(a.Critical.Steps), int64(b.Critical.Steps), "")
	r.addSection(counts)

	r.Quantiles = append(r.Quantiles, QuantileShift{
		Key:    prefix + "latency",
		CountA: uint64(a.Messages), CountB: uint64(b.Messages),
		P50A: a.Latency.P50, P50B: b.Latency.P50,
		P90A: a.Latency.P90, P90B: b.Latency.P90,
		P99A: a.Latency.P99, P99B: b.Latency.P99,
		MaxA: a.Latency.Max, MaxB: b.Latency.Max,
	})
}

// alignUint feeds the union of two uint64-valued maps into a section.
func alignUint(sec *sectionBuilder, a, b map[string]uint64) {
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
	for _, k := range keys {
		va, inA := a[k]
		vb, inB := b[k]
		only := ""
		switch {
		case !inA:
			only = "b"
		case !inB:
			only = "a"
		}
		if va > 1<<62 || vb > 1<<62 {
			// Unreachable for real unit counts; guard the conversion anyway.
			panic(fmt.Sprintf("diff: value overflows int64 for key %s", k))
		}
		sec.term(k, int64(va), int64(vb), only)
	}
}
