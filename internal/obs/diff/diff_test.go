package diff

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"msglayer/internal/critpath"
	"msglayer/internal/experiments"
	"msglayer/internal/flitnet"
	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/perfreg"
	"msglayer/internal/topology"
	"msglayer/internal/workload"
)

// runCanonical executes one canonical scenario under a fresh hub with a
// timeline sampler riding the round clock.
func runCanonical(t *testing.T, name string, words int) (*obs.Hub, *timeline.Timeline) {
	t.Helper()
	hub := obs.NewHub()
	sampler := timeline.New(hub.Metrics, timeline.Config{Interval: 8})
	hub.SetTickListener(sampler.Advance)
	experiments.SetObserver(hub)
	defer experiments.SetObserver(nil)
	if _, err := experiments.RunCanonical(name, words); err != nil {
		t.Fatalf("RunCanonical(%s): %v", name, err)
	}
	end := hub.Round()
	if end == 0 {
		end = 1
	}
	sampler.Flush(end)
	if err := sampler.Reconcile(); err != nil {
		t.Fatalf("sampler reconcile (%s): %v", name, err)
	}
	return hub, sampler.Snapshot()
}

// runFlit executes one flit-grid point with link counters attached.
func runFlit(t *testing.T, mode flitnet.Mode, load float64, cycles int) (*obs.Hub, *flitnet.Net) {
	t.Helper()
	topo, err := topology.NewFatTree(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := flitnet.New(flitnet.Config{
		Topology: topo, Mode: mode,
		BufferFlits: 3, InjectQueue: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	hub := obs.NewHub()
	net.SetFlitObserver(hub.FlitScope())
	gen, err := workload.NewGenerator(workload.Uniform{}, net.Nodes(), load, 1)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cycles; c++ {
		for _, a := range gen.Cycle() {
			_ = net.Inject(network.Packet{Src: a.Src, Dst: a.Dst, Data: []network.Word{network.Word(c)}})
		}
		net.Tick(1)
	}
	net.TickUntilQuiet(200000)
	return hub, net
}

// recordedSnapshot memoizes one perfreg recording for the whole test run
// (recording runs every canonical scenario).
var recordedSnapshot = sync.OnceValues(func() (*perfreg.Snapshot, error) {
	return perfreg.Record(perfreg.RecordConfig{Label: "diff-test", SkipBenches: true})
})

func snapshot(t *testing.T) *perfreg.Snapshot {
	t.Helper()
	s, err := recordedSnapshot()
	if err != nil {
		t.Fatalf("perfreg.Record: %v", err)
	}
	return s
}

// mustReconcile asserts every section of the report sums exactly.
func mustReconcile(t *testing.T, r *Report) {
	t.Helper()
	if err := r.Reconcile(); err != nil {
		t.Fatal(err)
	}
}

func TestSectionPermilleAndTotals(t *testing.T) {
	b := newSection("s", "units")
	b.term("x", 10, 40, "") // +30
	b.term("y", 50, 40, "") // -10
	b.term("z", 7, 7, "")   // 0
	s := b.seal()
	if s.TotalA != 67 || s.TotalB != 87 || s.TotalDelta != 20 {
		t.Fatalf("sum-defined totals = %d/%d/%d", s.TotalA, s.TotalB, s.TotalDelta)
	}
	// |delta| sum is 40: +30 → +750‰, -10 → -250‰.
	shares := map[string]int64{}
	for _, term := range s.Terms {
		shares[term.Key] = term.Permille
	}
	if shares["x"] != 750 || shares["y"] != -250 || shares["z"] != 0 {
		t.Fatalf("permille shares = %v", shares)
	}
}

func TestReconcileCatchesIncompleteWaterfall(t *testing.T) {
	r := newReport("test", "a", "b")
	b := newSection("instr", "instructions")
	b.term("cell", 10, 15, "")
	b.total("instr/total", 10, 20) // terms explain only 5 of the 10 delta
	r.addSection(b)
	err := r.Reconcile()
	if err == nil || !strings.Contains(err.Error(), "instr") {
		t.Fatalf("Reconcile = %v, want incompleteness error naming the section", err)
	}
}

func TestBlameRanking(t *testing.T) {
	r := newReport("test", "a", "b")
	b := newSection("s1", "units")
	b.term("small", 0, 1, "")
	b.term("big", 0, -100, "")
	r.addSection(b)
	b2 := newSection("s2", "events")
	b2.term("mid", 5, 55, "")
	b2.term("flat", 9, 9, "")
	r.addSection(b2)
	blame := r.Blame(0)
	if len(blame) != 3 {
		t.Fatalf("blame has %d entries, want 3 (flat term excluded)", len(blame))
	}
	if blame[0].Key != "big" || blame[1].Key != "mid" || blame[2].Key != "small" {
		t.Fatalf("blame order = %v", blame)
	}
	if top := r.Blame(1); len(top) != 1 || top[0].Key != "big" {
		t.Fatalf("Blame(1) = %v", top)
	}
}

func TestPerfregSelfDiffIsZero(t *testing.T) {
	s := snapshot(t)
	r := ComparePerfreg(s, s)
	mustReconcile(t, r)
	if !r.Zero() {
		var buf bytes.Buffer
		_ = WriteText(&buf, r)
		t.Fatalf("self-diff not zero:\n%s", buf.String())
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "identical: all") {
		t.Fatalf("self-diff text missing zero statement:\n%s", buf.String())
	}
}

// copySnapshot deep-copies the parts the diff reads.
func copySnapshot(s *perfreg.Snapshot) *perfreg.Snapshot {
	c := *s
	c.Scenarios = make([]perfreg.ScenarioResult, len(s.Scenarios))
	for i, sc := range s.Scenarios {
		c.Scenarios[i] = sc
		c.Scenarios[i].Sim = make(map[string]uint64, len(sc.Sim))
		for k, v := range sc.Sim {
			c.Scenarios[i].Sim[k] = v
		}
	}
	c.Benches = append([]perfreg.BenchResult(nil), s.Benches...)
	return &c
}

func TestPerfregDiffAttributesInstructionChange(t *testing.T) {
	a := snapshot(t)
	b := copySnapshot(a)
	name := b.Scenarios[0].Name
	sim := b.Scenarios[0].Sim
	var cell string
	for k := range sim {
		if strings.HasPrefix(k, "instr/") && k != "instr/total" {
			if cell == "" || k < cell {
				cell = k
			}
		}
	}
	if cell == "" {
		t.Fatalf("scenario %s has no instruction cells", name)
	}
	sim[cell] += 7
	sim["instr/total"] += 7

	r := ComparePerfreg(a, b)
	mustReconcile(t, r)
	if r.Zero() {
		t.Fatal("diff with a moved cell is Zero")
	}
	blame := r.Blame(1)
	wantKey := strings.TrimPrefix(cell, "instr/")
	if len(blame) != 1 || blame[0].Section != name+"/instr" || blame[0].Key != wantKey || blame[0].Delta != 7 {
		t.Fatalf("top blame = %+v, want %s/instr %s +7", blame, name, wantKey)
	}
	if blame[0].Permille != 1000 {
		t.Fatalf("sole mover permille = %d, want 1000", blame[0].Permille)
	}
}

func TestPerfregDiffBrokenTotalFailsReconcile(t *testing.T) {
	a := snapshot(t)
	b := copySnapshot(a)
	// Move a cell WITHOUT moving instr/total: the waterfall no longer
	// explains the recorded total, which Reconcile must reject.
	sim := b.Scenarios[0].Sim
	for k := range sim {
		if strings.HasPrefix(k, "instr/") && k != "instr/total" {
			sim[k] += 3
			break
		}
	}
	if err := ComparePerfreg(a, b).Reconcile(); err == nil {
		t.Fatal("Reconcile accepted a waterfall that does not sum to instr/total")
	}
}

func TestPerfregDiffReportsAsymmetry(t *testing.T) {
	a := snapshot(t)
	b := copySnapshot(a)
	dropped := b.Scenarios[len(b.Scenarios)-1].Name
	b.Scenarios = b.Scenarios[:len(b.Scenarios)-1]
	b.Scenarios[0].Sim["custom/only-in-b"] = 42

	r := ComparePerfreg(a, b)
	mustReconcile(t, r)
	if len(r.OnlyA) != 1 || r.OnlyA[0] != "scenario "+dropped {
		t.Fatalf("OnlyA = %v, want the dropped scenario", r.OnlyA)
	}
	found := false
	for _, s := range r.Sections {
		for _, term := range s.Terms {
			if term.Key == "custom/only-in-b" {
				found = true
				if term.OnlyIn != "b" || term.A != 0 || term.B != 42 {
					t.Fatalf("one-sided term = %+v", term)
				}
			}
		}
	}
	if !found {
		t.Fatal("one-sided sim key was silently dropped")
	}
}

func TestCompareRunsAcrossCanonicalScenarios(t *testing.T) {
	names := experiments.CanonicalScenarios()
	runs := make([]Run, len(names))
	for i, name := range names {
		hub, tl := runCanonical(t, name, 64)
		runs[i] = Run{Label: name, Metrics: hub.Metrics.JSONMetrics(), Timeline: tl}
	}
	for i, a := range runs {
		self := CompareRuns(a, a)
		mustReconcile(t, self)
		if !self.Zero() {
			t.Fatalf("%s: self-diff not zero", names[i])
		}
		for j, b := range runs {
			r := CompareRuns(a, b)
			mustReconcile(t, r)
			if i != j && r.Zero() {
				t.Fatalf("%s vs %s: distinct scenarios diff to zero", names[i], names[j])
			}
		}
	}
}

func TestCompareRunsLinkWaterfallPinsFlitMoves(t *testing.T) {
	hubA, netA := runFlit(t, flitnet.Deterministic, 0.2, 300)
	hubB, netB := runFlit(t, flitnet.CR, 0.2, 300)
	a := Run{Label: "det", Metrics: hubA.Metrics.JSONMetrics(), FlitMoves: netA.FlitStats().FlitMoves}
	b := Run{Label: "cr", Metrics: hubB.Metrics.JSONMetrics(), FlitMoves: netB.FlitStats().FlitMoves}
	r := CompareRuns(a, b)
	mustReconcile(t, r)
	var links *Section
	for i := range r.Sections {
		if r.Sections[i].Name == "links" {
			links = &r.Sections[i]
		}
	}
	if links == nil || links.TotalKey != "stats/flit_moves" {
		t.Fatalf("links section missing or not pinned to the engine total: %+v", links)
	}
	if len(links.Terms) == 0 || links.TotalA == 0 || links.TotalB == 0 {
		t.Fatalf("links waterfall empty: %d terms, totals %d/%d", len(links.Terms), links.TotalA, links.TotalB)
	}
	// One-sided timeline must be declared, not dropped.
	hubA2, _ := runFlit(t, flitnet.Deterministic, 0.2, 300)
	_ = hubA2
	aWithTL := a
	aWithTL.Timeline = &timeline.Timeline{Schema: timeline.SchemaVersion, Interval: 1}
	r2 := CompareRuns(aWithTL, b)
	if len(r2.OnlyA) != 1 || r2.OnlyA[0] != "timeline" {
		t.Fatalf("one-sided timeline not reported: OnlyA=%v", r2.OnlyA)
	}
}

func TestCompareTimelinesPhasesPartitionEvents(t *testing.T) {
	_, tlA := runCanonical(t, experiments.CanonicalScenarios()[0], 64)
	_, tlB := runCanonical(t, experiments.CanonicalScenarios()[0], 128)
	r := CompareTimelines("w64", "w128", tlA, tlB)
	mustReconcile(t, r)
	var phases *Section
	for i := range r.Sections {
		if r.Sections[i].Name == "phases" {
			phases = &r.Sections[i]
		}
	}
	if phases == nil || len(phases.Terms) != 4 {
		t.Fatalf("phases section = %+v, want the four regime kinds", phases)
	}
	// Every per-phase breakdown section is pinned to its independently
	// aggregated phase total; Reconcile above proved them complete.
	for _, s := range r.Sections {
		if strings.HasPrefix(s.Name, "phase/") && s.TotalKey == "" {
			t.Fatalf("section %s is not pinned to a phase total", s.Name)
		}
	}
	// Interval mismatch is a declared caveat.
	shrunk := *tlB
	shrunk.Interval = tlB.Interval * 2
	r2 := CompareTimelines("a", "b", tlA, &shrunk)
	if len(r2.Notes) == 0 || !strings.Contains(r2.Notes[0], "intervals differ") {
		t.Fatalf("interval mismatch not noted: %v", r2.Notes)
	}
}

// critpathSet analyzes one canonical scenario into a loaded CritpathDoc by
// round-tripping through the real JSON renderer.
func critpathSet(t *testing.T, name string, words int) CritpathSet {
	t.Helper()
	hub, _ := runCanonical(t, name, words)
	js, err := critpath.JSON(critpath.Analyze(hub.Trace.Events()))
	if err != nil {
		t.Fatal(err)
	}
	var doc CritpathDoc
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatal(err)
	}
	return CritpathSet{name: &doc}
}

func TestCompareCritpathAcrossCanonicalScenarios(t *testing.T) {
	names := experiments.CanonicalScenarios()
	sets := make([]CritpathSet, len(names))
	for i, name := range names {
		sets[i] = critpathSet(t, name, 64)
	}
	for i, a := range sets {
		self := CompareCritpath("a", "b", a, a)
		mustReconcile(t, self)
		if !self.Zero() {
			var buf bytes.Buffer
			_ = WriteText(&buf, self)
			t.Fatalf("%s: critpath self-diff not zero:\n%s", names[i], buf.String())
		}
		for j, b := range sets {
			if i == j {
				continue
			}
			// Cross-scenario sets share no report key, so everything lands
			// in the asymmetry lists; same-key comparison is exercised below.
			r := CompareCritpath("a", "b", a, b)
			mustReconcile(t, r)
			if len(r.OnlyA) != 1 || len(r.OnlyB) != 1 {
				t.Fatalf("%s vs %s: asymmetric reports not declared", names[i], names[j])
			}
		}
	}
	// Same scenario at different transfer sizes ("single" ignores words,
	// so pick a streaming one): aligned comparison with the work waterfall
	// pinned to the recorded work total.
	name := "cm5-stream"
	small := critpathSet(t, name, 64)
	big := critpathSet(t, name, 128)
	r := CompareCritpath("w64", "w128", small, big)
	mustReconcile(t, r)
	if r.Zero() {
		t.Fatal("different transfer sizes diff to zero")
	}
	var sawPinned bool
	for _, s := range r.Sections {
		if (s.Name == "waterfall" || s.Name == "work-by-axis") && s.TotalKey == "categories/work" {
			sawPinned = true
		}
	}
	if !sawPinned {
		t.Fatal("work waterfalls are not pinned to the recorded work total")
	}
}

func TestLoadArtifactSniffing(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name string, data []byte) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	hub, tl := runCanonical(t, experiments.CanonicalScenarios()[0], 64)
	metricsDoc, err := hub.Metrics.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	tlDoc, err := json.Marshal(tl)
	if err != nil {
		t.Fatal(err)
	}
	gridDoc, err := json.Marshal(map[string]any{
		"points": []map[string]any{{"mode": "cr", "load_permille": 200, "timeline": tl}},
	})
	if err != nil {
		t.Fatal(err)
	}
	js, err := critpath.JSON(critpath.Analyze(hub.Trace.Events()))
	if err != nil {
		t.Fatal(err)
	}
	multiDoc, err := json.Marshal(map[string]any{"scenarios": map[string]json.RawMessage{"s": js}})
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "snap.json")
	if err := snapshot(t).WriteFile(snapPath); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		path string
		kind string
	}{
		{writeFile("metrics.json", metricsDoc), "metrics"},
		{writeFile("timeline.json", tlDoc), "timeline"},
		{writeFile("grid.json", gridDoc), "timeline-grid"},
		{writeFile("critpath-single.json", js), "critpath"},
		{writeFile("critpath-multi.json", multiDoc), "critpath"},
		{snapPath, "perfreg"},
	}
	arts := make([]*Artifact, len(cases))
	for i, c := range cases {
		a, err := LoadArtifact(c.path)
		if err != nil {
			t.Fatalf("LoadArtifact(%s): %v", c.path, err)
		}
		if a.Kind != c.kind {
			t.Fatalf("LoadArtifact(%s).Kind = %s, want %s", c.path, a.Kind, c.kind)
		}
		arts[i] = a
	}

	// Every kind self-compares to zero through the artifact dispatcher.
	for i, a := range arts {
		r, err := CompareArtifacts(a, a)
		if err != nil {
			t.Fatalf("CompareArtifacts(%s): %v", cases[i].kind, err)
		}
		mustReconcile(t, r)
		if !r.Zero() {
			t.Fatalf("%s: artifact self-diff not zero", cases[i].kind)
		}
	}

	if _, err := CompareArtifacts(arts[0], arts[1]); err == nil {
		t.Fatal("comparing a metrics export against a timeline did not error")
	}
	if _, err := LoadArtifactBytes("x", []byte(`{"what":1}`)); err == nil || !strings.Contains(err.Error(), "unrecognised") {
		t.Fatalf("unknown shape error = %v", err)
	}
}

// TestLoadArtifactRejectsNullReport: a critpath document whose report is
// null, or a timeline grid whose timeline is, is refused at load, naming
// it, instead of dereferencing nil in the compare.
func TestLoadArtifactRejectsNullReport(t *testing.T) {
	for _, c := range []struct{ doc, want string }{
		{`{"points":[{"mode":"cr","load_permille":200,"timeline":null}]}`, `timeline "cr/load=200" is null`},
		{`{"flit":[{"mode":"x","load":0.1,"report":null}]}`, `"flit/x/load=100" is null`},
		{`{"scenarios":{"s":null}}`, `"s" is null`},
	} {
		_, err := LoadArtifactBytes("a.json", []byte(c.doc))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want it to contain %s", c.doc, err, c.want)
		}
	}
}

// TestLoadArtifactRejectsUnbalancedBreakdown: a window whose breakdown
// cells do not sum to its events is refused at load, naming the window
// (and the grid point), instead of loading and then failing the diff's
// reconciliation.
func TestLoadArtifactRejectsUnbalancedBreakdown(t *testing.T) {
	const bad = `{"schema":1,"interval":100,"windows":[{"index":0,"start":0,"end":100,"events":5,"breakdown":[{"role":"source","axis":"base","category":"work","events":3}]}],"digest":"0000000000000000"}`
	for _, c := range []struct{ doc, want string }{
		{bad, `timeline windows[0] (index 0): breakdown events sum to 3, window events 5`},
		{`{"points":[{"mode":"cr","load_permille":200,"timeline":` + bad + `}]}`,
			`timeline "cr/load=200" windows[0] (index 0): breakdown events sum to 3`},
	} {
		_, err := LoadArtifactBytes("bad.json", []byte(c.doc))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want it to contain %s", c.doc, err, c.want)
		}
	}
}

// FuzzLoadArtifactBytes holds the artifact loader to its contract on
// arbitrary input: it fails cleanly, or the artifact it loads diffs
// against itself to exactly zero and that diff reconciles. It never
// panics. The seed corpus is under testdata/fuzz/FuzzLoadArtifactBytes.
func FuzzLoadArtifactBytes(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := LoadArtifactBytes("fuzz", data)
		if err != nil {
			return
		}
		r, err := CompareArtifacts(a, a)
		if err != nil {
			t.Fatalf("loaded %s artifact does not compare with itself: %v", a.Kind, err)
		}
		if !r.Zero() {
			t.Fatalf("%s artifact self-diff is not zero", a.Kind)
		}
		if err := r.Reconcile(); err != nil {
			t.Fatalf("%s artifact self-diff does not reconcile: %v", a.Kind, err)
		}
	})
}

func TestRenderersAreDeterministic(t *testing.T) {
	a := snapshot(t)
	b := copySnapshot(a)
	b.Scenarios[0].Sim["instr/total"] += 11
	for k := range b.Scenarios[0].Sim {
		if strings.HasPrefix(k, "instr/") && k != "instr/total" {
			b.Scenarios[0].Sim[k] += 11
			break
		}
	}
	render := func() (string, string, string) {
		r := ComparePerfreg(a, b)
		var text, jsonB, csvB bytes.Buffer
		if err := WriteText(&text, r); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(&jsonB, r); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&csvB, r); err != nil {
			t.Fatal(err)
		}
		return text.String(), jsonB.String(), csvB.String()
	}
	t1, j1, c1 := render()
	t2, j2, c2 := render()
	if t1 != t2 || j1 != j2 || c1 != c2 {
		t.Fatal("renderers are not deterministic across invocations")
	}
	if !strings.Contains(t1, "top movers") {
		t.Fatalf("text report missing blame section:\n%s", t1)
	}
	var decoded Report
	if err := json.Unmarshal([]byte(j1), &decoded); err != nil {
		t.Fatalf("JSON report does not round-trip: %v", err)
	}
	if decoded.Schema != SchemaVersion || decoded.Kind != "perfreg" {
		t.Fatalf("decoded report header = %+v", decoded)
	}
	if !strings.HasPrefix(c1, "kind,section,unit,key,a,b,delta,permille,only_in\n") {
		t.Fatalf("CSV header = %q", strings.SplitN(c1, "\n", 2)[0])
	}
}
