package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"msglayer/internal/flitnet"
	"msglayer/internal/obs/diff"
	"msglayer/internal/topology"
	"msglayer/internal/workload"
)

func TestRunSmallSweep(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-loads", "0.05,0.2", "-cycles", "300", "-k", "2", "-levels", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"deterministic thru", "adaptive lat", "cr thru", "50", "200"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunMeshCSV(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-topology", "mesh", "-w", "3", "-h", "2", "-loads", "0.1",
		"-cycles", "200", "-vc", "2", "-csv"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "load_permille,") {
		t.Errorf("CSV:\n%s", out.String())
	}
}

// TestRunParallelMatchesSerial is the parallel sweep engine's determinism
// contract: every artifact — the report table, metrics dump, Chrome trace,
// critical-path report, and timeline, all accumulated across every sweep
// point — must be byte-identical at any worker count.
func TestRunParallelMatchesSerial(t *testing.T) {
	runWith := func(workers string) (artifacts [5]string) {
		dir := t.TempDir()
		mPath := filepath.Join(dir, "m.txt")
		tPath := filepath.Join(dir, "t.json")
		cPath := filepath.Join(dir, "c.txt")
		tlPath := filepath.Join(dir, "tl.json")
		var out, errOut strings.Builder
		code := run([]string{"-loads", "0.05,0.1,0.2", "-cycles", "300", "-k", "2", "-levels", "2",
			"-metrics", mPath, "-trace-out", tPath, "-critpath", cPath, "-timeline-out", tlPath,
			"-parallel", workers}, &out, &errOut)
		if code != 0 {
			t.Fatalf("-parallel %s: exit %d: %s", workers, code, errOut.String())
		}
		artifacts[0] = out.String()
		for i, p := range []string{mPath, tPath, cPath, tlPath} {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			artifacts[i+1] = string(b)
		}
		return artifacts
	}
	names := [5]string{"stdout", "metrics", "trace", "critpath", "timeline"}
	serial := runWith("1")
	for _, workers := range []string{"2", "4"} {
		got := runWith(workers)
		for i := range got {
			if got[i] != serial[i] {
				t.Errorf("%s differs between -parallel 1 and -parallel %s:\n--- serial ---\n%s--- parallel ---\n%s",
					names[i], workers, serial[i], got[i])
			}
		}
	}
}

// TestRunShardedMatchesSerial is the mesh side of the same contract: with
// the load/mode grid of a virtual-channel mesh sharded across -parallel
// workers, every artifact — the report table, metrics dump, Chrome trace,
// critical-path report, and timeline — must be byte-identical to the serial
// run, including when -parallel is left at its GOMAXPROCS default.
func TestRunShardedMatchesSerial(t *testing.T) {
	runWith := func(extra ...string) (artifacts [5]string) {
		dir := t.TempDir()
		mPath := filepath.Join(dir, "m.txt")
		tPath := filepath.Join(dir, "t.json")
		cPath := filepath.Join(dir, "c.txt")
		tlPath := filepath.Join(dir, "tl.json")
		var out, errOut strings.Builder
		args := append([]string{"-topology", "mesh", "-w", "4", "-h", "4", "-vc", "2",
			"-loads", "0.05,0.2", "-cycles", "300",
			"-metrics", mPath, "-trace-out", tPath, "-critpath", cPath, "-timeline-out", tlPath}, extra...)
		code := run(args, &out, &errOut)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", extra, code, errOut.String())
		}
		artifacts[0] = out.String()
		for i, p := range []string{mPath, tPath, cPath, tlPath} {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			artifacts[i+1] = string(b)
		}
		return artifacts
	}
	names := [5]string{"stdout", "metrics", "trace", "critpath", "timeline"}
	serial := runWith("-parallel", "1")
	for _, variant := range [][]string{
		{"-parallel", "2"},
		{"-parallel", "3"},
		// No -parallel: the unset flag is GOMAXPROCS workers.
		{},
	} {
		got := runWith(variant...)
		for i := range got {
			if got[i] != serial[i] {
				t.Errorf("%s differs between serial and %v", names[i], variant)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-topology", "ring"}, &out, &errOut); code != 1 {
		t.Errorf("unknown topology exit %d", code)
	}
	if code := run([]string{"-loads", "2.0"}, &out, &errOut); code != 1 {
		t.Errorf("bad load exit %d", code)
	}
	if code := run([]string{"-loads", "x"}, &out, &errOut); code != 1 {
		t.Errorf("unparsable load exit %d", code)
	}
	if code := run([]string{"-wat"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag exit %d", code)
	}
}

// Throughput grows with offered load below saturation, and latency is
// sane (at least the minimum path length).
func TestMeasureMonotoneBelowSaturation(t *testing.T) {
	topo := topology.MustFatTree(2, 2)
	lo, latLo, _, _, err := measure(topo, flitnet.Deterministic, 1, workload.Uniform{}, 0.02, 1500, 7, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	hi, latHi, _, idle, err := measure(topo, flitnet.Deterministic, 1, workload.Uniform{}, 0.10, 1500, 7, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if idle == 0 {
		t.Error("event-driven engine fast-forwarded no idle cycles at low load")
	}
	if !(hi > lo) {
		t.Errorf("throughput did not grow with load: %.2f vs %.2f", lo, hi)
	}
	if latLo < 3 || latHi < latLo {
		t.Errorf("latency odd: %.1f at low load, %.1f at high", latLo, latHi)
	}
}

// TestObsNetloadMetricsAndTrace exercises the -metrics/-trace-out flags: the
// dump must label every (mode, load) point and the trace must carry one
// duration span per point.
func TestObsNetloadMetricsAndTrace(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.txt")
	trace := filepath.Join(dir, "trace.json")
	var out, errOut strings.Builder
	code := run([]string{"-loads", "0.05,0.2", "-cycles", "300", "-k", "2", "-levels", "2",
		"-metrics", metrics, "-trace-out", trace}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}

	md, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"deterministic", "adaptive", "cr"} {
		for _, load := range []string{"load_50", "load_200"} {
			want := `msglayer_netload_delivered_total{proto="` + mode + `",event="` + load + `"}`
			if !strings.Contains(string(md), want) {
				t.Errorf("metrics missing series %s:\n%s", want, md)
			}
		}
	}
	if !strings.Contains(string(md), "msglayer_netload_latency_mean_millicycles") {
		t.Errorf("metrics missing mean latency gauge:\n%s", md)
	}

	td, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(td, &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" && strings.HasPrefix(e.Name, "netload.") {
			spans++
		}
	}
	// 3 modes x 2 loads.
	if spans != 6 {
		t.Errorf("got %d netload spans, want 6", spans)
	}
}

// TestObsNetloadDeterministic runs the same sweep twice and requires
// byte-identical metrics dumps.
func TestObsNetloadDeterministic(t *testing.T) {
	render := func() string {
		var out, errOut strings.Builder
		code := run([]string{"-loads", "0.1", "-cycles", "200", "-k", "2", "-levels", "2",
			"-metrics", "-"}, &out, &errOut)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
		return out.String()
	}
	if a, b := render(), render(); a != b {
		t.Error("netload metrics dump differs between identical runs")
	}
}

func TestRunPatternFlag(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-pattern", "hotspot:15:600", "-loads", "0.1", "-cycles", "300"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "hotspot(15,600") {
		t.Errorf("title missing pattern:\n%s", out.String())
	}
	if code := run([]string{"-pattern", "ring"}, &out, &errOut); code != 1 {
		t.Errorf("bad pattern exit %d", code)
	}
}

// syncBuffer is a strings.Builder safe to write from the run goroutine and
// read from the test.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestObsNetloadServeAnswersAndShutsDownOnSIGINT is the acceptance test for
// -serve: the HTTP endpoints answer while the process runs, and SIGINT shuts
// the tool down cleanly with exit status 0.
func TestObsNetloadServeAnswersAndShutsDownOnSIGINT(t *testing.T) {
	var out, errOut syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-loads", "0.05,0.1", "-cycles", "500", "-k", "2", "-levels", "2",
			"-serve", "127.0.0.1:0"}, &out, &errOut)
	}()

	// The address line is printed after the SIGINT handler is registered.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no server address on stderr:\n%s", errOut.String())
		}
		if _, rest, ok := strings.Cut(errOut.String(), "http://"); ok {
			addr = strings.Fields(rest)[0]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	for _, path := range []string{"/metrics", "/snapshot", "/trace", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if path == "/snapshot" && !strings.Contains(string(body), `"schema"`) {
			t.Errorf("/snapshot body missing schema field: %.200s", body)
		}
		if path == "/trace" && !strings.Contains(string(body), "traceEvents") {
			t.Errorf("/trace body missing traceEvents: %.200s", body)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d after SIGINT:\n%s", code, errOut.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("run did not exit after SIGINT:\n%s", errOut.String())
	}

	// The server must actually be down.
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still answering after shutdown")
	}
}

// stripIdleLines removes the idle-fast-forward reporting — the one output
// that legitimately differs between engines (the dense reference never
// fast-forwards, so its count is always zero). Everything else must match
// byte for byte.
func stripIdleLines(s string) string {
	var kept []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "idle") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// TestObsDenseMatchesEventDriven is the tool-level half of the engine
// equivalence contract: a full sweep — report table, metrics dump, Chrome
// trace, covering all three routing modes — must be byte-identical between
// the event-driven engine and the retained dense reference (-dense),
// modulo the idle-fast-forward counters only the event engine accumulates.
func TestObsDenseMatchesEventDriven(t *testing.T) {
	runWith := func(extra ...string) (stdout, metrics, trace string) {
		dir := t.TempDir()
		mPath := filepath.Join(dir, "m.txt")
		tPath := filepath.Join(dir, "t.json")
		var out, errOut strings.Builder
		args := append([]string{"-loads", "0.05,0.2", "-cycles", "300", "-k", "2", "-levels", "2",
			"-vc", "2", "-metrics", mPath, "-trace-out", tPath}, extra...)
		code := run(args, &out, &errOut)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", extra, code, errOut.String())
		}
		m, err := os.ReadFile(mPath)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := os.ReadFile(tPath)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), string(m), string(tr)
	}
	eventOut, eventMetrics, eventTrace := runWith()
	denseOut, denseMetrics, denseTrace := runWith("-dense")
	eventOut, denseOut = stripIdleLines(eventOut), stripIdleLines(denseOut)
	eventMetrics, denseMetrics = stripIdleLines(eventMetrics), stripIdleLines(denseMetrics)
	if denseOut != eventOut {
		t.Errorf("stdout differs between -dense and event-driven:\n--- dense ---\n%s--- event ---\n%s", denseOut, eventOut)
	}
	if denseMetrics != eventMetrics {
		t.Errorf("metrics dump differs between -dense and event-driven:\n--- dense ---\n%s--- event ---\n%s", denseMetrics, eventMetrics)
	}
	if denseTrace != eventTrace {
		t.Errorf("trace differs between -dense and event-driven:\n--- dense ---\n%s--- event ---\n%s", denseTrace, eventTrace)
	}
}

// TestObsNetloadCritpath exercises -critpath: every sweep point gets a
// reconciled attribution report, and the report is byte-identical across
// worker counts and flit engines.
func TestObsNetloadCritpath(t *testing.T) {
	renderCP := func(extra ...string) string {
		dir := t.TempDir()
		cpPath := filepath.Join(dir, "cp.txt")
		var out, errOut strings.Builder
		args := append([]string{"-loads", "0.05,0.2", "-cycles", "300", "-k", "2", "-levels", "2",
			"-critpath", cpPath}, extra...)
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d: %s", extra, code, errOut.String())
		}
		b, err := os.ReadFile(cpPath)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	base := renderCP()
	for _, want := range []string{
		"== deterministic routing, load 0.05 ==",
		"== cr routing, load 0.20 ==",
		"where the time goes",
		"critical path",
	} {
		if !strings.Contains(base, want) {
			t.Errorf("critpath report missing %q", want)
		}
	}
	if got := renderCP("-parallel", "8"); got != base {
		t.Error("critpath report differs between -parallel 1 and -parallel 8")
	}
	if got := renderCP("-dense"); got != base {
		t.Error("critpath report differs between flit engines")
	}
}

// renderTimeline runs a small sweep with -timeline-out and returns the
// stdout report and the timeline file contents.
func renderTimeline(t *testing.T, name string, extra ...string) (string, string) {
	t.Helper()
	dir := t.TempDir()
	tlPath := filepath.Join(dir, name)
	var out, errOut strings.Builder
	args := append([]string{"-loads", "0.05,0.2", "-cycles", "300", "-k", "2", "-levels", "2",
		"-timeline-out", tlPath, "-timeline-interval", "64"}, extra...)
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d: %s", extra, code, errOut.String())
	}
	b, err := os.ReadFile(tlPath)
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), string(b)
}

// TestObsNetloadTimeline exercises -timeline-out: the JSON document carries
// one reconciled timeline per sweep point, and the text report gains the
// per-phase analysis section.
func TestObsNetloadTimeline(t *testing.T) {
	out, tl := renderTimeline(t, "tl.json")
	var doc struct {
		Points []struct {
			Mode         string `json:"mode"`
			LoadPermille int    `json:"load_permille"`
			Timeline     struct {
				Schema   int    `json:"schema"`
				Interval uint64 `json:"interval"`
				Digest   string `json:"digest"`
				Windows  []struct {
					End uint64 `json:"end"`
				} `json:"windows"`
			} `json:"timeline"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(tl), &doc); err != nil {
		t.Fatalf("timeline JSON does not parse: %v", err)
	}
	if len(doc.Points) != 6 { // 3 modes x 2 loads
		t.Fatalf("got %d timeline points, want 6", len(doc.Points))
	}
	for _, p := range doc.Points {
		if p.Timeline.Interval != 64 || p.Timeline.Digest == "" || len(p.Timeline.Windows) == 0 {
			t.Errorf("%s load %d: timeline incomplete: interval=%d digest=%q windows=%d",
				p.Mode, p.LoadPermille, p.Timeline.Interval, p.Timeline.Digest, len(p.Timeline.Windows))
		}
	}
	for _, want := range []string{"# phase analysis (64-cycle windows)", "steady", "by axis:", "deterministic routing, load 200/1000:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestObsNetloadTimelineCSV checks the .csv spelling of -timeline-out.
func TestObsNetloadTimelineCSV(t *testing.T) {
	_, tl := renderTimeline(t, "tl.csv")
	lines := strings.Split(strings.TrimSpace(tl), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "mode,load_permille,window,start,end,kind,key,value") {
		t.Fatalf("CSV header wrong:\n%.300s", tl)
	}
	if !strings.Contains(tl, "\ncr,200,") {
		t.Errorf("CSV missing cr load-200 rows:\n%.300s", tl)
	}
}

// TestObsNetloadTimelineDeterminism is the timeline determinism contract:
// the timeline file and the report (with its phase analysis) must be
// byte-identical at any worker count and between the event-driven engine
// and the dense reference.
func TestObsNetloadTimelineDeterminism(t *testing.T) {
	baseOut, baseTl := renderTimeline(t, "tl.json")
	if out, tl := renderTimeline(t, "tl.json", "-parallel", "8"); tl != baseTl || out != baseOut {
		t.Error("timeline output differs between -parallel 1 and -parallel 8")
	}
	denseOut, denseTl := renderTimeline(t, "tl.json", "-dense")
	if denseTl != baseTl {
		t.Error("timeline file differs between flit engines")
	}
	if stripIdleLines(denseOut) != stripIdleLines(baseOut) {
		t.Error("report differs between flit engines beyond idle accounting")
	}
}

// renderBaseline runs a small sweep with -baseline and returns the report
// file contents.
func renderBaseline(t *testing.T, name string, extra ...string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, name)
	var out, errOut strings.Builder
	args := append([]string{"-loads", "0.05,0.2", "-cycles", "300", "-k", "2", "-levels", "2",
		"-baseline", path}, extra...)
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d: %s", extra, code, errOut.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestObsNetloadBaseline exercises -baseline: the Figure 6 comparison —
// baseline deterministic routing diffed against CR per offered load — as a
// reconciled obsdiff report with per-link waterfalls pinned to the
// engines' own flit-move totals.
func TestObsNetloadBaseline(t *testing.T) {
	text := renderBaseline(t, "fig6.txt")
	for _, want := range []string{
		"obsdiff run-grid: A=deterministic B=cr",
		"load=0050/links (flits)",
		"load=0200/links (flits)",
		"total = load=0200/stats/flit_moves",
		"top movers",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("baseline report missing %q:\n%s", want, text)
		}
	}

	js := renderBaseline(t, "fig6.json")
	var rep diff.Report
	if err := json.Unmarshal([]byte(js), &rep); err != nil {
		t.Fatalf("baseline JSON does not parse: %v", err)
	}
	if rep.Kind != "run-grid" {
		t.Fatalf("report kind = %q", rep.Kind)
	}
	if err := rep.Reconcile(); err != nil {
		t.Fatalf("baseline report does not reconcile: %v", err)
	}
	if rep.Zero() {
		t.Fatal("deterministic-vs-CR diff is zero; CR retries should move link traffic")
	}
	linkSections := 0
	for _, s := range rep.Sections {
		if strings.HasSuffix(s.Name, "/links") {
			linkSections++
			if s.TotalKey == "" || len(s.Terms) == 0 {
				t.Errorf("section %s: not pinned (%q) or empty (%d terms)", s.Name, s.TotalKey, len(s.Terms))
			}
		}
	}
	if linkSections != 2 {
		t.Fatalf("got %d per-load link sections, want 2", linkSections)
	}

	if !strings.HasPrefix(renderBaseline(t, "fig6.csv"), "kind,section,unit,key,a,b,delta,permille,only_in\n") {
		t.Error("csv baseline report missing header")
	}
}

// TestObsNetloadBaselineDeterminism: the baseline report is byte-identical
// at any worker count and between flit engines, and composes with
// -timeline-out (per-phase deltas ride the same report).
func TestObsNetloadBaselineDeterminism(t *testing.T) {
	base := renderBaseline(t, "fig6.txt")
	if got := renderBaseline(t, "fig6.txt", "-parallel", "8"); got != base {
		t.Error("baseline report differs between -parallel 1 and -parallel 8")
	}
	if got := renderBaseline(t, "fig6.txt", "-dense"); got != base {
		t.Error("baseline report differs between flit engines")
	}

	dir := t.TempDir()
	withTL := renderBaseline(t, "fig6.txt", "-timeline-out", filepath.Join(dir, "tl.json"), "-timeline-interval", "64")
	if !strings.Contains(withTL, "load=0200/timeline/phases") {
		t.Errorf("baseline report with -timeline-out missing per-phase deltas:\n%s", withTL)
	}
}

// TestProfileFlags exercises -cpuprofile/-memprofile: both files must exist
// and be non-empty after a successful run, and an unwritable path must fail
// the run without leaving a partial file.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpuPath := filepath.Join(dir, "cpu.out")
	memPath := filepath.Join(dir, "mem.out")
	var out, errOut strings.Builder
	code := run([]string{"-loads", "0.05", "-cycles", "100", "-k", "2", "-levels", "2",
		"-cpuprofile", cpuPath, "-memprofile", memPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, p := range []string{cpuPath, memPath} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}

	badCPU := filepath.Join(dir, "no", "such", "cpu.out")
	if code := run([]string{"-loads", "0.05", "-cycles", "50", "-k", "2", "-levels", "2",
		"-cpuprofile", badCPU}, &out, &errOut); code != 1 {
		t.Errorf("unwritable -cpuprofile exit %d, want 1", code)
	}
	badMem := filepath.Join(dir, "no", "such", "mem.out")
	if code := run([]string{"-loads", "0.05", "-cycles", "50", "-k", "2", "-levels", "2",
		"-memprofile", badMem}, &out, &errOut); code != 1 {
		t.Errorf("unwritable -memprofile exit %d, want 1", code)
	}
	if _, err := os.Stat(badMem); !os.IsNotExist(err) {
		t.Error("partial memprofile left behind")
	}
}
