// Package report renders instruction-count results in the layouts of the
// paper's tables and figures: Table 1's subcategory breakdown, Table 2's
// feature × role panels, Table 3's reg/mem/dev panels, Figure 6's paired
// bars, and Figure 8's series — all as plain text (with CSV escape hatches
// for plotting).
package report

import (
	"fmt"
	"strings"

	"msglayer/internal/cost"
)

// Cells is a role × feature breakdown, the shape shared by measured gauges
// and the analytic model.
type Cells map[cost.Role]map[cost.Feature]cost.Vec

// FromGauge extracts a breakdown from a measured gauge.
func FromGauge(g *cost.Gauge) Cells {
	c := make(Cells, cost.NumRoles)
	for _, r := range cost.Roles() {
		c[r] = column(g, r)
	}
	return c
}

// MergeRoles combines two gauges, taking the Source column from src's gauge
// and the Destination column from dst's — the usual two-node experiment
// where each node accumulates one role.
func MergeRoles(src, dst *cost.Gauge) Cells {
	return Cells{
		cost.Source:      column(src, cost.Source),
		cost.Destination: column(dst, cost.Destination),
	}
}

// column extracts one role's features from a gauge.
func column(g *cost.Gauge, r cost.Role) map[cost.Feature]cost.Vec {
	col := make(map[cost.Feature]cost.Vec, cost.NumFeatures)
	for _, f := range cost.Features() {
		col[f] = g.Cell(r, f)
	}
	return col
}

// RoleTotal sums a column.
func (c Cells) RoleTotal(r cost.Role) cost.Vec {
	var v cost.Vec
	for _, cell := range c[r] {
		v = v.Add(cell)
	}
	return v
}

// Total sums everything.
func (c Cells) Total() cost.Vec {
	return c.RoleTotal(cost.Source).Add(c.RoleTotal(cost.Destination))
}

// Table1 renders the single-packet delivery breakdown in the layout of the
// paper's Table 1, from a gauge holding one send and one receive.
func Table1(g *cost.Gauge) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %12s\n", "Description", "Source", "Destination")
	var srcTotal, dstTotal uint64
	for _, s := range cost.Subs() {
		src := g.SubCell(cost.Source, s).Total()
		dst := g.SubCell(cost.Destination, s).Total()
		if src == 0 && dst == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-18s %8s %12s\n", s, dash(src), dash(dst))
		srcTotal += src
		dstTotal += dst
	}
	fmt.Fprintf(&b, "%-18s %8d %12d\n", "Total", srcTotal, dstTotal)
	return b.String()
}

// FeatureTable renders a Table 2 panel: feature rows, Source / Destination
// / Total columns, unit-cost instruction counts.
func FeatureTable(title string, c Cells) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s %10s %12s %10s\n", "Feature", "Source", "Destination", "Total")
	for _, f := range cost.Features() {
		src := c[cost.Source][f].Total()
		dst := c[cost.Destination][f].Total()
		fmt.Fprintf(&b, "%-14s %10s %12s %10s\n", f, dash(src), dash(dst), dash(src+dst))
	}
	src := c.RoleTotal(cost.Source).Total()
	dst := c.RoleTotal(cost.Destination).Total()
	fmt.Fprintf(&b, "%-14s %10d %12d %10d\n", "Total", src, dst, src+dst)
	return b.String()
}

// CategoryTable renders a Table 3 panel: feature rows with reg/mem/dev
// columns for each role.
func CategoryTable(title string, c Cells) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s %21s   %21s\n", "", "Source", "Destination")
	fmt.Fprintf(&b, "%-14s %6s %6s %6s   %6s %6s %6s\n", "Feature", "reg", "mem", "dev", "reg", "mem", "dev")
	var srcSum, dstSum cost.Vec
	for _, f := range cost.Features() {
		src := c[cost.Source][f]
		dst := c[cost.Destination][f]
		fmt.Fprintf(&b, "%-14s %6s %6s %6s   %6s %6s %6s\n", f,
			dash(src.Reg), dash(src.Mem), dash(src.Dev),
			dash(dst.Reg), dash(dst.Mem), dash(dst.Dev))
		srcSum = srcSum.Add(src)
		dstSum = dstSum.Add(dst)
	}
	fmt.Fprintf(&b, "%-14s %6d %6d %6d   %6d %6d %6d\n", "Total",
		srcSum.Reg, srcSum.Mem, srcSum.Dev, dstSum.Reg, dstSum.Mem, dstSum.Dev)
	return b.String()
}

// WeightedLine summarizes a breakdown under a cycle model, the Appendix A
// usage.
func WeightedLine(c Cells, m cost.Model) string {
	return fmt.Sprintf("weighted cycles under %s: source %d, destination %d, total %d",
		m, m.Cost(c.RoleTotal(cost.Source)), m.Cost(c.RoleTotal(cost.Destination)),
		m.Cost(c.Total()))
}

// BarPair is one labeled comparison of Figure 6: a CMAM cost next to its
// high-level-feature (CR) counterpart.
type BarPair struct {
	Label string
	CMAM  uint64
	CR    uint64
}

// Comparison renders Figure 6-style paired horizontal bars with the
// improvement percentage.
func Comparison(title string, pairs []BarPair) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	var max uint64 = 1
	for _, p := range pairs {
		if p.CMAM > max {
			max = p.CMAM
		}
		if p.CR > max {
			max = p.CR
		}
	}
	const width = 44
	for _, p := range pairs {
		improvement := 0.0
		if p.CMAM > 0 {
			improvement = 100 * (1 - float64(p.CR)/float64(p.CMAM))
		}
		fmt.Fprintf(&b, "  %-24s\n", p.Label)
		fmt.Fprintf(&b, "    CMAM %7d |%s\n", p.CMAM, bar(p.CMAM, max, width))
		fmt.Fprintf(&b, "    CR   %7d |%s  (-%.0f%%)\n", p.CR, bar(p.CR, max, width), improvement)
	}
	return b.String()
}

// SeriesPoint is one row of a Figure 8-style series.
type SeriesPoint struct {
	X      int
	Label  string
	Values []float64
}

// Series renders a multi-column series with a header, one row per X.
func Series(title string, xName string, colNames []string, points []SeriesPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%8s", xName)
	for _, c := range colNames {
		fmt.Fprintf(&b, " %18s", c)
	}
	b.WriteByte('\n')
	for _, p := range points {
		fmt.Fprintf(&b, "%8d", p.X)
		for _, v := range p.Values {
			fmt.Fprintf(&b, " %18.4f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders a series as comma-separated values for external plotting.
func CSV(xName string, colNames []string, points []SeriesPoint) string {
	var b strings.Builder
	b.WriteString(xName)
	for _, c := range colNames {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, p := range points {
		fmt.Fprintf(&b, "%d", p.X)
		for _, v := range p.Values {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// PaperVsMeasured renders one EXPERIMENTS.md-style comparison row.
func PaperVsMeasured(name string, paper, measured uint64) string {
	verdict := "match"
	if paper != measured {
		delta := 100 * (float64(measured) - float64(paper)) / float64(paper)
		verdict = fmt.Sprintf("%+.1f%%", delta)
	}
	return fmt.Sprintf("%-44s paper %8d   measured %8d   %s", name, paper, measured, verdict)
}

func bar(v, max uint64, width int) string {
	n := int(v * uint64(width) / max)
	if v > 0 && n == 0 {
		n = 1
	}
	return strings.Repeat("#", n)
}

func dash(v uint64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

// MarkdownFeatureTable renders a Table 2 panel as a GitHub-flavored
// markdown table, for embedding results in documentation.
func MarkdownFeatureTable(c Cells) string {
	var b strings.Builder
	b.WriteString("| Feature | Source | Destination | Total |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, f := range cost.Features() {
		src := c[cost.Source][f].Total()
		dst := c[cost.Destination][f].Total()
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", f, dash(src), dash(dst), dash(src+dst))
	}
	src := c.RoleTotal(cost.Source).Total()
	dst := c.RoleTotal(cost.Destination).Total()
	fmt.Fprintf(&b, "| **Total** | %d | %d | %d |\n", src, dst, src+dst)
	return b.String()
}

// MarkdownComparisons renders paper-vs-measured rows as a markdown table.
func MarkdownComparisons(rows []BarPair) string {
	var b strings.Builder
	b.WriteString("| Case | CMAM | CR | Improvement |\n|---|---|---|---|\n")
	for _, r := range rows {
		improvement := 0.0
		if r.CMAM > 0 {
			improvement = 100 * (1 - float64(r.CR)/float64(r.CMAM))
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %.0f%% |\n", r.Label, r.CMAM, r.CR, improvement)
	}
	return b.String()
}
