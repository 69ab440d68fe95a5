package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"msglayer/internal/experiments"
	"msglayer/internal/obs"
	"msglayer/internal/obs/diff"
	"msglayer/internal/obs/timeline"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedHub runs the fixed scenario every golden test renders: one 32-word
// finite transfer on the CM-5 substrate, fully deterministic.
func fixedHub(t *testing.T) *obs.Hub {
	t.Helper()
	h := obs.NewHub()
	experiments.SetObserver(h)
	defer experiments.SetObserver(nil)
	if _, err := experiments.RunCanonical("cm5-finite", 32); err != nil {
		t.Fatal(err)
	}
	return h
}

// get fetches a path from the handler and returns the body.
func get(t *testing.T, srv *Server, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", path, rec.Code)
	}
	return rec.Body.Bytes()
}

// checkGolden compares got against testdata/<name>, rewriting under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from golden file; run go test ./internal/obs/serve -update and review the diff.\n--- got ---\n%.2000s", name, got)
	}
}

func TestObsServeMetricsGolden(t *testing.T) {
	srv := New(fixedHub(t))
	checkGolden(t, "metrics.golden", get(t, srv, "/metrics"))
}

func TestObsServeSnapshotGolden(t *testing.T) {
	srv := New(fixedHub(t))
	body := get(t, srv, "/snapshot")
	var doc struct {
		Schema      int             `json:"schema"`
		Round       uint64          `json:"round"`
		TraceEvents int             `json:"trace_events"`
		Registry    json.RawMessage `json:"registry"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/snapshot does not parse: %v", err)
	}
	if doc.Schema != snapshotSchema || doc.Round == 0 || doc.TraceEvents == 0 || len(doc.Registry) == 0 {
		t.Fatalf("/snapshot missing fields: %+v", doc)
	}
	checkGolden(t, "snapshot.golden", body)
}

func TestObsServeTraceAndIndex(t *testing.T) {
	srv := New(fixedHub(t))
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(get(t, srv, "/trace"), &doc); err != nil {
		t.Fatalf("/trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/trace empty")
	}
	if body := string(get(t, srv, "/")); len(body) == 0 {
		t.Fatal("index empty")
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", rec.Code)
	}
}

// fixedTimelineHub runs the fixed scenario with a timeline sampler on the
// hub's round clock, flushed at the final round.
func fixedTimelineHub(t *testing.T) (*obs.Hub, *timeline.Sampler) {
	t.Helper()
	h := obs.NewHub()
	s := timeline.New(h.Metrics, timeline.Config{Interval: 8})
	h.SetTickListener(s.Advance)
	experiments.SetObserver(h)
	defer experiments.SetObserver(nil)
	if _, err := experiments.RunCanonical("cm5-finite", 32); err != nil {
		t.Fatal(err)
	}
	s.Flush(h.Round())
	return h, s
}

func TestObsServeTimelineGolden(t *testing.T) {
	h, s := fixedTimelineHub(t)
	if err := s.Reconcile(); err != nil {
		t.Fatalf("timeline does not reconcile: %v", err)
	}
	srv := New(h)
	srv.SetTimeline(s)
	body := get(t, srv, "/timeline")
	var doc timeline.Timeline
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/timeline does not parse: %v", err)
	}
	if doc.Schema != timeline.SchemaVersion || len(doc.Windows) == 0 || doc.Digest == "" {
		t.Fatalf("/timeline missing fields: schema=%d windows=%d digest=%q", doc.Schema, len(doc.Windows), doc.Digest)
	}
	checkGolden(t, "timeline.golden", body)
}

func TestObsServeTimelineAbsent(t *testing.T) {
	srv := New(fixedHub(t))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/timeline", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /timeline without sampler = %d, want 404", rec.Code)
	}
}

func TestObsServeTimelineNoGoroutineLeak(t *testing.T) {
	h, s := fixedTimelineHub(t)
	before := runtime.NumGoroutine()

	srv := New(h)
	srv.SetTimeline(s)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /timeline = %d: %.200s", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before Start, %d after Shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// postDiff POSTs a baseline artifact to /diff and returns (code, body).
func postDiff(t *testing.T, srv *Server, path string, body []byte) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return rec.Code, rec.Body.String()
}

func TestObsServeDiffSelfAndDrift(t *testing.T) {
	h := fixedHub(t)
	srv := New(h)
	baseline := get(t, srv, "/snapshot") // the wrapped form: registry inside

	// The hub has not moved since the snapshot: the diff is exactly zero.
	code, body := postDiff(t, srv, "/diff", baseline)
	if code != http.StatusOK {
		t.Fatalf("POST /diff = %d: %.500s", code, body)
	}
	if !strings.Contains(body, "identical: all") {
		t.Fatalf("self-diff is not zero:\n%s", body)
	}

	// Mutate the hub under Sync; the diff must attribute the exact delta.
	c := h.Metrics.Counter(obs.Key{Name: "packets_sent_total", Node: 0, Proto: "cmam"})
	srv.Sync(func() { c.Add(7) })
	code, body = postDiff(t, srv, "/diff", baseline)
	if code != http.StatusOK {
		t.Fatalf("POST /diff after drift = %d: %.500s", code, body)
	}
	for _, want := range []string{"packets_sent_total", "top movers", "B=live"} {
		if !strings.Contains(body, want) {
			t.Fatalf("drift diff missing %q:\n%s", want, body)
		}
	}

	// JSON format parses back into a reconciling metrics report.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/diff?format=json", bytes.NewReader(baseline)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /diff?format=json = %d", rec.Code)
	}
	var rep diff.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("/diff JSON does not parse: %v", err)
	}
	if rep.Kind != "metrics" || rep.Zero() {
		t.Fatalf("drift report kind=%q zero=%v", rep.Kind, rep.Zero())
	}
	if err := rep.Reconcile(); err != nil {
		t.Fatalf("/diff report does not reconcile: %v", err)
	}

	// CSV format carries the standard header.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/diff?format=csv", bytes.NewReader(baseline)))
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), "kind,section,unit,key,") {
		t.Fatalf("POST /diff?format=csv = %d: %.200s", rec.Code, rec.Body.String())
	}
}

func TestObsServeDiffFileBaseline(t *testing.T) {
	h := fixedHub(t)
	srv := New(h)
	var reg json.RawMessage
	var err error
	srv.Sync(func() { reg, err = h.Metrics.MetricsJSON() })
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := os.WriteFile(path, reg, 0o644); err != nil {
		t.Fatal(err)
	}
	body := get(t, srv, "/diff?file="+path)
	if !strings.Contains(string(body), "identical: all") {
		t.Fatalf("file-referenced self-diff is not zero:\n%s", body)
	}
}

func TestObsServeDiffTimelineBaseline(t *testing.T) {
	h, s := fixedTimelineHub(t)
	srv := New(h)
	srv.SetTimeline(s)
	baseline := get(t, srv, "/timeline")
	code, body := postDiff(t, srv, "/diff", baseline)
	if code != http.StatusOK {
		t.Fatalf("POST /diff (timeline) = %d: %.500s", code, body)
	}
	if !strings.Contains(body, "identical: all") {
		t.Fatalf("timeline self-diff is not zero:\n%s", body)
	}

	// Without a sampler attached, a timeline baseline has no live peer.
	bare := New(fixedHub(t))
	if code, _ := postDiff(t, bare, "/diff", baseline); code != http.StatusNotFound {
		t.Fatalf("timeline diff without sampler = %d, want 404", code)
	}
}

// TestObsServeDiffRejectsUnbalancedTimeline: a timeline baseline whose
// window breakdown does not sum to the window's events is bad input (400),
// refused at load, not a diff that fails to reconcile (500).
func TestObsServeDiffRejectsUnbalancedTimeline(t *testing.T) {
	h, s := fixedTimelineHub(t)
	srv := New(h)
	srv.SetTimeline(s)
	bad := []byte(`{"schema":1,"interval":100,"windows":[{"index":0,"start":0,"end":100,"events":5,"breakdown":[{"role":"source","axis":"base","category":"work","events":3}]}],"digest":"0000000000000000"}`)
	code, body := postDiff(t, srv, "/diff", bad)
	if code != http.StatusBadRequest || !strings.Contains(body, "breakdown events sum to 3, window events 5") {
		t.Fatalf("unbalanced timeline baseline = %d: %.300s", code, body)
	}
}

func TestObsServeDiffErrors(t *testing.T) {
	srv := New(fixedHub(t))
	// No baseline at all.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/diff", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("GET /diff with no baseline = %d, want 400", rec.Code)
	}
	// Unparseable body.
	if code, _ := postDiff(t, srv, "/diff", []byte("not json")); code != http.StatusBadRequest {
		t.Fatalf("garbage baseline = %d, want 400", code)
	}
	// Recognised artifact of the wrong kind (a critpath report).
	critpath := []byte(`{"by_category":{},"critical_path":{"steps":0,"span":0}}`)
	if code, body := postDiff(t, srv, "/diff", critpath); code != http.StatusBadRequest || !strings.Contains(body, "critpath") {
		t.Fatalf("critpath baseline = %d: %.200s", code, body)
	}
	// Unknown format.
	baseline := get(t, srv, "/snapshot")
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/diff?format=xml", bytes.NewReader(baseline)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("format=xml = %d, want 400", rec.Code)
	}
	// Missing file.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/diff?file=/nonexistent/base.json", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("missing file = %d, want 400", rec.Code)
	}
}

func TestObsServeCritpathGolden(t *testing.T) {
	srv := New(fixedHub(t))
	body := get(t, srv, "/critpath")
	checkGolden(t, "critpath.golden", body)
}

func TestObsServeStartShutdownNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	srv := New(obs.NewHub())
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/metrics", "/snapshot", "/trace", "/critpath", "/debug/pprof/"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %.200s", path, resp.StatusCode, body)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("server still answering after Shutdown")
	}

	// The serve goroutine and the http keep-alive workers must wind down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before Start, %d after Shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestObsServeSyncSerializesMutation(t *testing.T) {
	h := obs.NewHub()
	srv := New(h)
	c := h.Metrics.Counter(obs.Key{Name: "packets_sent_total", Node: 0, Proto: "cmam"})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			srv.Sync(func() { c.Inc() })
		}
	}()
	for i := 0; i < 50; i++ {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /metrics = %d mid-mutation", rec.Code)
		}
	}
	<-done
	if got := fmt.Sprint(c.Value()); got != "200" {
		t.Fatalf("counter = %s, want 200", got)
	}
}
