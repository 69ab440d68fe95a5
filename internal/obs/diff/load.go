package diff

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"msglayer/internal/obs"
	"msglayer/internal/perfreg"

	"msglayer/internal/obs/timeline"
)

// Artifact is one loaded observability artifact, recognised by its JSON
// shape: a perfreg snapshot, a metrics export, a single timeline, a
// netload timeline grid, or a critpath report (single or multi).
type Artifact struct {
	// Path is where the artifact was read from ("<stdin>" or a caller
	// label when loaded from bytes).
	Path string
	// Kind is one of "perfreg", "metrics", "timeline", "timeline-grid",
	// "critpath".
	Kind string

	Perfreg  *perfreg.Snapshot
	Metrics  []obs.JSONMetric
	Timeline *timeline.Timeline
	// Grid holds a netload timeline export keyed "mode/load=<permille>".
	Grid map[string]*timeline.Timeline
	// Critpath holds critpath reports keyed by scenario name (or
	// "flit/<mode>/load=<permille>" for grid points); a single-report file
	// loads under the key "report".
	Critpath CritpathSet
}

// LoadArtifact reads and recognises one artifact file.
func LoadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadArtifactBytes(path, data)
}

// LoadArtifactBytes recognises an artifact from raw JSON. The name is only
// used in errors and as Artifact.Path.
func LoadArtifactBytes(name string, data []byte) (*Artifact, error) {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return nil, fmt.Errorf("diff: %s: not a JSON object: %w", name, err)
	}
	a := &Artifact{Path: name}
	switch {
	case has(top, "metrics"):
		var doc struct {
			Metrics []obs.JSONMetric `json:"metrics"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("diff: %s: metrics export: %w", name, err)
		}
		a.Kind, a.Metrics = "metrics", doc.Metrics
	case has(top, "windows") && has(top, "interval"):
		var tl timeline.Timeline
		if err := json.Unmarshal(data, &tl); err != nil {
			return nil, fmt.Errorf("diff: %s: timeline export: %w", name, err)
		}
		if err := checkBreakdowns(&tl); err != nil {
			return nil, fmt.Errorf("diff: %s: timeline %w", name, err)
		}
		a.Kind, a.Timeline = "timeline", &tl
	case has(top, "points"):
		var doc struct {
			Points []struct {
				Mode         string             `json:"mode"`
				LoadPermille int                `json:"load_permille"`
				Timeline     *timeline.Timeline `json:"timeline"`
			} `json:"points"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("diff: %s: timeline grid: %w", name, err)
		}
		a.Kind = "timeline-grid"
		a.Grid = make(map[string]*timeline.Timeline, len(doc.Points))
		for _, p := range doc.Points {
			key := p.Mode + "/load=" + strconv.Itoa(p.LoadPermille)
			if p.Timeline == nil {
				return nil, fmt.Errorf("diff: %s: timeline %q is null", name, key)
			}
			if err := checkBreakdowns(p.Timeline); err != nil {
				return nil, fmt.Errorf("diff: %s: timeline %q %w", name, key, err)
			}
			a.Grid[key] = p.Timeline
		}
	case has(top, "schema") && has(top, "scenarios"):
		snap, err := perfreg.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("diff: %s: %w", name, err)
		}
		if err := checkInstrTotals(snap); err != nil {
			return nil, fmt.Errorf("diff: %s: %w", name, err)
		}
		a.Kind, a.Perfreg = "perfreg", snap
	case has(top, "scenarios") || has(top, "flit"):
		var doc struct {
			Scenarios map[string]*CritpathDoc `json:"scenarios"`
			Flit      []struct {
				Mode   string       `json:"mode"`
				Load   float64      `json:"load"`
				Report *CritpathDoc `json:"report"`
			} `json:"flit"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("diff: %s: critpath report: %w", name, err)
		}
		a.Kind = "critpath"
		a.Critpath = make(CritpathSet, len(doc.Scenarios)+len(doc.Flit))
		for k, v := range doc.Scenarios {
			a.Critpath[k] = v
		}
		for _, f := range doc.Flit {
			a.Critpath["flit/"+f.Mode+"/load="+strconv.Itoa(int(f.Load*1000))] = f.Report
		}
		for k, v := range a.Critpath {
			if v == nil {
				return nil, fmt.Errorf("diff: %s: critpath report %q is null", name, k)
			}
			if err := v.check(); err != nil {
				return nil, fmt.Errorf("diff: %s: critpath report %q: %w", name, k, err)
			}
		}
	case has(top, "by_category") && has(top, "critical_path"):
		var doc CritpathDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("diff: %s: critpath report: %w", name, err)
		}
		if err := doc.check(); err != nil {
			return nil, fmt.Errorf("diff: %s: critpath report: %w", name, err)
		}
		a.Kind = "critpath"
		a.Critpath = CritpathSet{"report": &doc}
	default:
		return nil, fmt.Errorf("diff: %s: unrecognised artifact shape (want a perfreg snapshot, metrics export, timeline, netload timeline grid, or critpath report)", name)
	}
	return a, nil
}

// checkBreakdowns rejects a timeline whose window breakdown cells do not
// sum to the window's protocol events. The sampler derives both from the
// same counters, so such a file was not written by it, and the phase
// sections of any diff of it could not reconcile.
func checkBreakdowns(tl *timeline.Timeline) error {
	for i, w := range tl.Windows {
		var sum uint64
		for _, c := range w.Breakdown {
			sum += c.Events
		}
		if sum != w.Events {
			return fmt.Errorf("windows[%d] (index %d): breakdown events sum to %d, window events %d", i, w.Index, sum, w.Events)
		}
	}
	return nil
}

// checkInstrTotals rejects a snapshot scenario whose instr/total is not
// the sum of its instr/* components, the waterfall a diff pins to it.
func checkInstrTotals(snap *perfreg.Snapshot) error {
	for _, sc := range snap.Scenarios {
		total, ok := sc.Sim["instr/total"]
		if !ok {
			continue
		}
		var sum uint64
		for k, v := range sc.Sim {
			if strings.HasPrefix(k, "instr/") && k != "instr/total" && !strings.Contains(k, "digest") {
				sum += v
			}
		}
		if sum != total {
			return fmt.Errorf("scenario %q: instr/* components sum to %d, instr/total %d", sc.Name, sum, total)
		}
	}
	return nil
}

// has reports whether a top-level key exists with a non-null value.
func has(top map[string]json.RawMessage, key string) bool {
	v, ok := top[key]
	return ok && string(v) != "null"
}

// CompareArtifacts dispatches on artifact kind. The two sides must be the
// same kind of artifact; comparing, say, a timeline against a perfreg
// snapshot is a usage error, not a diff.
func CompareArtifacts(a, b *Artifact) (*Report, error) {
	if a.Kind != b.Kind {
		return nil, fmt.Errorf("diff: artifact kinds differ: %s is %s, %s is %s", a.Path, a.Kind, b.Path, b.Kind)
	}
	switch a.Kind {
	case "metrics":
		return CompareMetrics(a.Path, b.Path, a.Metrics, b.Metrics), nil
	case "timeline":
		return CompareTimelines(a.Path, b.Path, a.Timeline, b.Timeline), nil
	case "timeline-grid":
		return CompareTimelineGrids(a.Path, b.Path, a.Grid, b.Grid), nil
	case "perfreg":
		return ComparePerfreg(a.Perfreg, b.Perfreg), nil
	case "critpath":
		return CompareCritpath(a.Path, b.Path, a.Critpath, b.Critpath), nil
	}
	return nil, fmt.Errorf("diff: unknown artifact kind %q", a.Kind)
}

// CompareTimelineGrids builds the differential attribution between two
// netload timeline grids, aligned per (mode, load) point.
func CompareTimelineGrids(aLabel, bLabel string, a, b map[string]*timeline.Timeline) *Report {
	r := newReport("timeline-grid", aLabel, bLabel)
	for _, key := range unionKeys(a, b) {
		ta, inA := a[key]
		tb, inB := b[key]
		switch {
		case !inA:
			r.OnlyB = append(r.OnlyB, "point "+key)
			continue
		case !inB:
			r.OnlyA = append(r.OnlyA, "point "+key)
			continue
		}
		timelineSections(r, key+"/", ta, tb)
	}
	return r
}
