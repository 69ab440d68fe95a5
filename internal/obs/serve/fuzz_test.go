package serve

import (
	"encoding/json"
	"reflect"
	"testing"

	"msglayer/internal/obs/diff"
)

// seedSnapshot is a /snapshot document in the shape the endpoint serves
// (testdata/snapshot.golden), cut to one metric of each kind so that the
// fuzzer minimizes new inputs quickly.
const seedSnapshot = `{
  "schema": 1,
  "round": 4,
  "trace_events": 48,
  "trace_dropped": 0,
  "registry": {"metrics": [
    {"name": "net_delivered_total", "kind": "counter", "proto": "cm5", "value": 11},
    {"name": "recv_queue_depth", "kind": "gauge", "node": 0},
    {"name": "recv_queue_depth_hist", "kind": "histogram", "node": 0, "bounds": [1, 2, 4],
     "counts": [4, 0, 0, 0], "sum": 2, "count": 4, "quantiles": {"p50": 1, "p90": 1, "p99": 1}}
  ]}
}`

// FuzzLoadBaseline holds the /diff baseline loader to its contract on
// arbitrary bodies. It never panics. It either rejects a body with an error
// or loads an artifact that diffs against itself to exactly zero. And the
// /snapshot unwrap round-trips: a document carrying a body as its
// "registry" loads exactly as the artifact loader reads the bare body. The
// seeds are a /snapshot document, the bare registry artifact inside it,
// and a snapshot whose registry is null.
func FuzzLoadBaseline(f *testing.F) {
	var doc struct {
		Registry json.RawMessage `json:"registry"`
	}
	if err := json.Unmarshal([]byte(seedSnapshot), &doc); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(seedSnapshot))
	f.Add([]byte(doc.Registry))
	f.Add([]byte(`{"schema": 1, "round": 4, "registry": null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if a, err := loadBaseline("fuzz", data); err == nil {
			r, err := diff.CompareArtifacts(a, a)
			if err != nil {
				t.Fatalf("loaded %s artifact does not compare with itself: %v", a.Kind, err)
			}
			if !r.Zero() {
				t.Fatalf("%s artifact self-diff is not zero", a.Kind)
			}
			if err := r.Reconcile(); err != nil {
				t.Fatalf("%s artifact self-diff does not reconcile: %v", a.Kind, err)
			}
		}
		if !json.Valid(data) {
			return
		}
		wrapped := append(append([]byte(`{"registry":`), data...), '}')
		got, gotErr := loadBaseline("fuzz", wrapped)
		want, wantErr := diff.LoadArtifactBytes("fuzz", data)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("wrapped body loads as (%v, %v), bare body as (%v, %v)", got, gotErr, want, wantErr)
		}
	})
}
