package monitor

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"msglayer/internal/obs/timeline"
)

// win builds one hand-made timeline window with counter deltas.
func win(idx int, start, end uint64, counters map[string]uint64) timeline.Window {
	w := timeline.Window{Index: idx, Start: start, End: end}
	width := end - start
	for _, k := range sortedStrings(counters) {
		w.Counters = append(w.Counters, timeline.CounterDelta{
			Key: k, Delta: counters[k], RatePerKCycle: counters[k] * 1000 / width,
		})
	}
	return w
}

func sortedStrings(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// tl assembles windows of width 10 into a timeline.
func tl(windows ...timeline.Window) *timeline.Timeline {
	return &timeline.Timeline{Schema: timeline.SchemaVersion, Interval: 10, Windows: windows}
}

// rateWindows renders per-window deltas of one counter into a timeline
// (width 10), so a rate rule with min/max in per-kcycle units sees
// delta*100 per window.
func rateWindows(deltas ...uint64) *timeline.Timeline {
	wins := make([]timeline.Window, 0, len(deltas))
	for i, d := range deltas {
		c := map[string]uint64{}
		if d > 0 {
			c["net_delivered_total"] = d
		}
		wins = append(wins, win(i, uint64(i)*10, uint64(i+1)*10, c))
	}
	return tl(wins...)
}

func mustMonitor(t *testing.T, rs *RuleSet) *Monitor {
	t.Helper()
	m, err := New(rs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func floorRule(forW, clearW int) *RuleSet {
	min := uint64(100) // delta >= 1 per 10-cycle window
	return &RuleSet{Rules: []Rule{{
		Name: "floor", Kind: KindRate,
		Match: Match{Prefix: "net_delivered_total"},
		Min:   &min, ForWindows: forW, ClearWindows: clearW,
	}}}
}

// span summarizes incidents for table-driven comparison.
type span struct {
	first, open, close, windows int
	stillOpen                   bool
}

func spansOf(rep *Report) []span {
	out := make([]span, 0, len(rep.Incidents))
	for _, inc := range rep.Incidents {
		out = append(out, span{inc.FirstWindow, inc.OpenWindow, inc.CloseWindow, inc.Windows, inc.Open})
	}
	return out
}

// TestMonitorHysteresisTable mirrors the timeline phase edge-case table
// for the alert state machine: boundary opens, single-window runs,
// all-idle timelines, streak resets, and an open+close inside one phase.
func TestMonitorHysteresisTable(t *testing.T) {
	cases := []struct {
		name         string
		rules        *RuleSet
		tl           *timeline.Timeline
		want         []span
		wantOpen     int
		wantWindows  int
		wantIncident int
	}{
		{
			// The violation starts exactly at a window boundary: window 2
			// is the first below the floor, the alert opens there
			// (for_windows 1) and closes at the first clean window.
			name:  "open-and-close-within-one-phase",
			rules: floorRule(1, 1),
			tl:    rateWindows(5, 5, 0, 0, 5, 5),
			want:  []span{{first: 2, open: 2, close: 4, windows: 2}},
		},
		{
			// for_windows 2: a lone violating window (index 1) never opens;
			// the sustained streak at 3-4 opens at 4.
			name:  "short-blip-absorbed-by-for-windows",
			rules: floorRule(2, 1),
			tl:    rateWindows(5, 0, 5, 0, 0, 5),
			want:  []span{{first: 3, open: 4, close: 5, windows: 2}},
		},
		{
			// clear_windows 2: the single clean window at 3 does not close
			// the alert (and resets the clean streak); two consecutive
			// clean windows at 5-6 do.
			name:  "clean-blip-absorbed-by-clear-windows",
			rules: floorRule(1, 2),
			tl:    rateWindows(5, 0, 0, 5, 0, 5, 5),
			want:  []span{{first: 1, open: 1, close: 6, windows: 3}},
		},
		{
			// A single-window run: the violation opens on the only window
			// and stays open at the end of the stream.
			name:  "single-window-run",
			rules: floorRule(1, 1),
			tl:    rateWindows(0),
			want:  []span{{first: 0, open: 0, close: -1, windows: 1, stillOpen: true}},
		},
		{
			// A single-window run that satisfies the floor: no incidents.
			name:  "single-window-clean",
			rules: floorRule(1, 1),
			tl:    rateWindows(5),
			want:  []span{},
		},
		{
			// All-idle timeline: a min-rate rule fires at window 0 and
			// never clears — the throughput floor is violated throughout.
			name:  "all-idle-floor",
			rules: floorRule(1, 1),
			tl:    rateWindows(0, 0, 0, 0),
			want:  []span{{first: 0, open: 0, close: -1, windows: 4, stillOpen: true}},
		},
		{
			// All-idle timeline with only a max-rate bound: idle windows
			// cannot exceed a ceiling, so nothing fires.
			name: "all-idle-ceiling",
			rules: func() *RuleSet {
				max := uint64(100)
				return &RuleSet{Rules: []Rule{{
					Name: "ceiling", Kind: KindRate,
					Match: Match{Prefix: "net_delivered_total"}, Max: &max,
				}}}
			}(),
			tl:   rateWindows(0, 0, 0, 0),
			want: []span{},
		},
		{
			// Violation exactly at the final (partial) window boundary: the
			// flush window (40, 45] is half-width, and the rate math uses
			// the true width, so delta 1 is 222 per kcycle — clean.
			name:  "partial-final-window-uses-true-width",
			rules: floorRule(1, 1),
			tl: tl(
				win(0, 0, 10, map[string]uint64{"net_delivered_total": 5}),
				win(1, 10, 20, map[string]uint64{"net_delivered_total": 5}),
				win(2, 20, 30, map[string]uint64{"net_delivered_total": 5}),
				win(3, 30, 40, map[string]uint64{"net_delivered_total": 5}),
				win(4, 40, 45, map[string]uint64{"net_delivered_total": 1}),
			),
			want: []span{},
		},
		{
			// Two separate incidents from two separated streaks.
			name:  "two-incidents",
			rules: floorRule(1, 1),
			tl:    rateWindows(5, 0, 5, 5, 0, 0, 5),
			want: []span{
				{first: 1, open: 1, close: 2, windows: 1},
				{first: 4, open: 4, close: 6, windows: 2},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := mustMonitor(t, c.rules)
			if err := m.Replay(c.tl); err != nil {
				t.Fatalf("Replay: %v", err)
			}
			rep := m.Snapshot(c.name)
			got := spansOf(rep)
			if len(got) != len(c.want) {
				t.Fatalf("incidents = %+v, want %+v", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("incident %d = %+v, want %+v", i, got[i], c.want[i])
				}
			}
			wantOpen := 0
			for _, s := range c.want {
				if s.stillOpen {
					wantOpen++
				}
			}
			if rep.Open != wantOpen {
				t.Errorf("open = %d, want %d", rep.Open, wantOpen)
			}
			if rep.Windows != len(c.tl.Windows) {
				t.Errorf("windows = %d, want %d", rep.Windows, len(c.tl.Windows))
			}
		})
	}
}

// TestMonitorThresholdBoundary pins the comparison semantics: value ==
// max is compliant, value == max+1 violates; rate == min is compliant.
func TestMonitorThresholdBoundary(t *testing.T) {
	max := uint64(500)
	rs := &RuleSet{Rules: []Rule{{
		Name: "ceiling", Kind: KindRate,
		Match: Match{Prefix: "net_delivered_total"}, Max: &max,
	}}}
	m := mustMonitor(t, rs)
	// Window deltas of 5 → exactly 500 per kcycle (boundary, clean), then
	// 6 → 600 (violates).
	if err := m.Replay(rateWindows(5, 6)); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	rep := m.Snapshot("boundary")
	if len(rep.Incidents) != 1 || rep.Incidents[0].OpenWindow != 1 {
		t.Fatalf("incidents = %+v, want one opening at window 1", spansOf(rep))
	}
	if rep.Incidents[0].Value != 600 {
		t.Errorf("value = %d, want 600", rep.Incidents[0].Value)
	}

	min := uint64(500)
	rs = &RuleSet{Rules: []Rule{{
		Name: "floor", Kind: KindRate,
		Match: Match{Prefix: "net_delivered_total"}, Min: &min,
	}}}
	m = mustMonitor(t, rs)
	if err := m.Replay(rateWindows(5, 4)); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	rep = m.Snapshot("boundary-min")
	if len(rep.Incidents) != 1 || rep.Incidents[0].OpenWindow != 1 {
		t.Fatalf("incidents = %+v, want one opening at window 1", spansOf(rep))
	}
}

// TestMonitorBurnRule exercises the multi-window burn math: the short
// window trips immediately on a bad window, but the alert needs the
// trailing long window to burn too.
func TestMonitorBurnRule(t *testing.T) {
	rs := &RuleSet{Rules: []Rule{{
		Name: "burn", Kind: KindBurn,
		Num:            Match{Prefix: "errors_total"},
		Den:            Match{Prefix: "requests_total"},
		BudgetPermille: 100, ShortFactor: 2, LongFactor: 2, LongWindows: 3,
	}}}
	// Budget 10%, both factors 2x → violate when errors/requests >= 20%
	// over the window AND over the trailing 3 windows.
	mk := func(idx int, errs, reqs uint64) timeline.Window {
		return win(idx, uint64(idx)*10, uint64(idx+1)*10,
			map[string]uint64{"errors_total": errs, "requests_total": reqs})
	}
	m := mustMonitor(t, rs)
	// Windows: clean, clean, hot, hot. Window 2 is 30% (short trips) but
	// the trailing ratio is 3/30 = 10% — long does not trip. Window 3 at
	// 50% pushes the trailing ratio to 8/40 = 20% — both trip, alert opens.
	err := m.Replay(tl(mk(0, 0, 10), mk(1, 0, 10), mk(2, 3, 10), mk(3, 5, 10)))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	rep := m.Snapshot("burn")
	if len(rep.Incidents) != 1 {
		t.Fatalf("incidents = %+v, want exactly one", spansOf(rep))
	}
	inc := rep.Incidents[0]
	if inc.FirstWindow != 3 || inc.OpenWindow != 3 || !inc.Open {
		t.Errorf("incident = %+v, want open at window 3", inc)
	}
	if inc.Value != 500 {
		t.Errorf("value = %d permille, want 500", inc.Value)
	}
}

// TestMonitorBurnZeroDen pins the den = 0 cross-multiplication: errors
// with no denominator traffic violate, pure silence does not.
func TestMonitorBurnZeroDen(t *testing.T) {
	rs := &RuleSet{Rules: []Rule{{
		Name: "burn", Kind: KindBurn,
		Num:            Match{Prefix: "errors_total"},
		Den:            Match{Prefix: "requests_total"},
		BudgetPermille: 100, ShortFactor: 2, LongFactor: 2, LongWindows: 2,
	}}}
	m := mustMonitor(t, rs)
	err := m.Replay(tl(
		win(0, 0, 10, nil),
		win(1, 10, 20, map[string]uint64{"errors_total": 1}),
	))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	rep := m.Snapshot("zero-den")
	if len(rep.Incidents) != 1 || rep.Incidents[0].OpenWindow != 1 {
		t.Fatalf("incidents = %+v, want one opening at window 1 (errors with no traffic)", spansOf(rep))
	}
	if rep.Incidents[0].Value != 1000 {
		t.Errorf("value = %d, want 1000 (all-errors sentinel)", rep.Incidents[0].Value)
	}
}

// TestMonitorUtilizationProvenance checks the worst series lands in the
// incident.
func TestMonitorUtilizationProvenance(t *testing.T) {
	rs := &RuleSet{Rules: []Rule{{
		Name: "links", Kind: KindUtilization,
		Match: Match{Prefix: "flitnet_link_flits_total"}, MaxPermille: 800,
	}}}
	m := mustMonitor(t, rs)
	err := m.Replay(tl(win(0, 0, 10, map[string]uint64{
		`flitnet_link_flits_total{node="0"}`: 5,
		`flitnet_link_flits_total{node="1"}`: 9,
	})))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	rep := m.Snapshot("util")
	if len(rep.Incidents) != 1 {
		t.Fatalf("incidents = %+v, want one", spansOf(rep))
	}
	inc := rep.Incidents[0]
	if inc.Series != `flitnet_link_flits_total{node="1"}` || inc.Value != 900 {
		t.Errorf("incident = %+v, want node 1 at 900 permille", inc)
	}
}

// TestMonitorQuantileReplayUsesExportedValues: replay reads the exported
// quantile fields, and a p999 rule refuses a default-quantile timeline.
func TestMonitorQuantileReplay(t *testing.T) {
	max := uint64(100)
	rs := &RuleSet{Rules: []Rule{{
		Name: "lat", Kind: KindQuantile,
		Match: Match{Prefix: "transfer_latency_rounds"}, Quantile: "p99", Max: &max,
	}}}
	m := mustMonitor(t, rs)
	w := timeline.Window{Index: 0, Start: 0, End: 10, Hists: []timeline.HistDelta{{
		Key: "transfer_latency_rounds", Count: 10, Sum: 2000, P50: 64, P90: 128, P99: 256,
	}}}
	if err := m.Replay(tl(w)); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	rep := m.Snapshot("quantile")
	if len(rep.Incidents) != 1 || rep.Incidents[0].Value != 256 {
		t.Fatalf("incidents = %+v, want one with value 256", rep.Incidents)
	}

	rs.Rules[0].Quantile = "p999"
	m = mustMonitor(t, rs)
	if err := m.Replay(tl(w)); err == nil {
		t.Fatalf("Replay with a p999 rule accepted a default-quantile timeline")
	}
}

// TestParseRulesJSON: a JSON document decodes every rule field, and the
// parsed set round-trips through its own JSON encoding unchanged.
func TestParseRulesJSON(t *testing.T) {
	src := `{
  "rules": [
    {"name": "floor", "kind": "rate", "match": {"prefix": "net_delivered_total"}, "min": 100, "for_windows": 2},
    {"name": "lat", "kind": "quantile", "match": {"prefix": "transfer_latency_rounds", "contains": ["proto=\"cr\""]}, "quantile": "p90", "max": 64},
    {"name": "burn", "kind": "burn", "num": {"prefix": "errors_total"}, "den": {"prefix": "requests_total"}, "budget_permille": 50}
  ]
}`
	a, err := ParseRules([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rules) != 3 {
		t.Fatalf("got %d rules, want 3", len(a.Rules))
	}
	floor, lat, burn := a.Rules[0], a.Rules[1], a.Rules[2]
	if floor.Kind != KindRate || floor.Min == nil || *floor.Min != 100 || floor.ForWindows != 2 {
		t.Errorf("floor rule = %+v", floor)
	}
	if lat.Quantile != "p90" || lat.Max == nil || *lat.Max != 64 || len(lat.Match.Contains) != 1 || lat.Match.Contains[0] != `proto="cr"` {
		t.Errorf("lat rule = %+v", lat)
	}
	if burn.Num.Prefix != "errors_total" || burn.Den.Prefix != "requests_total" || burn.BudgetPermille != 50 {
		t.Errorf("burn rule = %+v", burn)
	}
	enc, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseRules(enc)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	for i := range a.Rules {
		aj, _ := jsonMarshal(a.Rules[i])
		bj, _ := jsonMarshal(b.Rules[i])
		if aj != bj {
			t.Errorf("rule %d changed on round trip:\n first: %s\n again: %s", i, aj, bj)
		}
	}
}

func jsonMarshal(v any) (string, error) {
	b, err := json.Marshal(v)
	return string(b), err
}

// TestParseRulesRejects pins validation and parser errors.
func TestParseRulesRejects(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"empty", `{"rules": []}`, "no rules"},
		{"no-name", `{"rules": [{"kind": "rate", "match": {"prefix": "x"}, "min": 1}]}`, "name is required"},
		{"dup-name", `{"rules": [{"name": "a", "kind": "rate", "match": {"prefix": "x"}, "min": 1}, {"name": "a", "kind": "rate", "match": {"prefix": "x"}, "min": 1}]}`, "duplicate"},
		{"bad-kind", `{"rules": [{"name": "a", "kind": "nope"}]}`, "unknown kind"},
		{"bad-quantile", `{"rules": [{"name": "a", "kind": "quantile", "match": {"prefix": "x"}, "quantile": "p42", "max": 1}]}`, "unknown quantile"},
		{"rate-no-bound", `{"rules": [{"name": "a", "kind": "rate", "match": {"prefix": "x"}}]}`, "max and/or min"},
		{"burn-no-den", `{"rules": [{"name": "a", "kind": "burn", "num": {"prefix": "x"}, "budget_permille": 1}]}`, "num and den"},
		{"unknown-field", `{"rules": [{"name": "a", "kind": "rate", "match": {"prefix": "x"}, "min": 1, "oops": 2}]}`, "unknown field"},
		// Only JSON is accepted; YAML documents and any other text are
		// rejected before decoding.
		{"yaml-tab", "rules:\n\t- name: a", "must be a JSON object"},
		{"yaml-junk", "rules:\n  - name: a\n bad", "must be a JSON object"},
		{"non-json", "rules:\n  - name: floor\n    kind: rate\n    min: 1\n", "must be a JSON object"},
		{"blank", " \n\t", "must be a JSON object"},
		{"trailing-data", `{"rules": [{"name": "a", "kind": "rate", "match": {"prefix": "x"}, "min": 1}]} trailing garbage`, "trailing data"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseRules([]byte(c.src))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %v, want substring %q", err, c.want)
			}
		})
	}
}

// FuzzParseRules holds the rules parser to its contract on arbitrary
// input: it rejects cleanly or accepts a rule set that survives a
// marshal/parse round trip unchanged, and it never panics. The seed corpus
// is under testdata/fuzz/FuzzParseRules.
func FuzzParseRules(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ParseRules(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("accepted rules do not marshal: %v", err)
		}
		b, err := ParseRules(enc)
		if err != nil {
			t.Fatalf("accepted rules do not re-parse: %v\n%s", err, enc)
		}
		if again, _ := json.Marshal(b); !bytes.Equal(again, enc) {
			t.Fatalf("rules changed on round trip:\n first: %s\n again: %s", enc, again)
		}
	})
}

// TestCanonicalRulesLoad: the built-in set validates and "canonical"
// resolves to it.
func TestCanonicalRulesLoad(t *testing.T) {
	rs, err := LoadRules("canonical")
	if err != nil {
		t.Fatalf("LoadRules(canonical): %v", err)
	}
	if _, err := New(rs); err != nil {
		t.Fatalf("New(canonical): %v", err)
	}
}

// TestReportRenderersAreDeterministic: two snapshots of the same replay
// render byte-identically in every format, and the digest is stable.
func TestReportRenderersAreDeterministic(t *testing.T) {
	render := func() (string, string, string, string) {
		m := mustMonitor(t, floorRule(1, 2))
		if err := m.Replay(rateWindows(5, 0, 0, 5, 5)); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		rep := m.Snapshot("det")
		var text, js, cs bytes.Buffer
		if err := WriteText(&text, rep); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		if err := WriteJSON(&js, rep); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if err := WriteCSV(&cs, rep); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		return text.String(), js.String(), cs.String(), rep.Digest
	}
	t1, j1, c1, d1 := render()
	t2, j2, c2, d2 := render()
	if t1 != t2 || j1 != j2 || c1 != c2 || d1 != d2 {
		t.Fatalf("renderings differ across identical replays")
	}
	if !strings.Contains(t1, "incident 0") || !strings.Contains(t1, "# digest: "+d1) {
		t.Errorf("text report missing expected content:\n%s", t1)
	}
}

// TestDigestExcludesLabel: the digest pins firing behavior, not naming.
func TestDigestExcludesLabel(t *testing.T) {
	reps := make([]*Report, 0, 2)
	for _, label := range []string{"a", "b"} {
		m := mustMonitor(t, floorRule(1, 1))
		if err := m.Replay(rateWindows(5, 0, 5)); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		reps = append(reps, m.Snapshot(label))
	}
	if reps[0].Digest != reps[1].Digest {
		t.Fatalf("digest depends on the label: %s vs %s", reps[0].Digest, reps[1].Digest)
	}
}
