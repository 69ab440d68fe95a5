package perfreg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// recorded is one snapshot shared by the suite: a recording without the
// allocation benchmarks (those get their own smoke test) at the default
// sizes every committed snapshot uses.
var recorded = sync.OnceValues(func() (*Snapshot, error) {
	return Record(RecordConfig{Label: "test", SkipBenches: true})
})

func recordOnce(t *testing.T) *Snapshot {
	t.Helper()
	s, err := recorded()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPerfregRecordShape(t *testing.T) {
	s := recordOnce(t)
	if s.Schema != SchemaVersion {
		t.Fatalf("schema = %d, want %d", s.Schema, SchemaVersion)
	}
	if s.Words != 64 || s.NetloadCycles != 1000 {
		t.Fatalf("recorded at words %d, netload cycles %d; want 64 and 1000", s.Words, s.NetloadCycles)
	}
	if len(s.Scenarios) != 7 {
		t.Fatalf("got %d scenarios, want 7", len(s.Scenarios))
	}
	for _, sc := range s.Scenarios {
		if len(sc.Sim) == 0 {
			t.Errorf("%s: no sim metrics", sc.Name)
		}
		if sc.Name == TwinScenario {
			// The twin scenario carries only the calibration accuracy
			// aggregates, no instruction totals.
			if sc.Sim["twin_net_points"] == 0 || sc.Sim["twin_proto_points"] == 0 {
				t.Errorf("%s: point counts missing: %v", sc.Name, sc.Sim)
			}
			continue
		}
		if sc.Name != NetloadScenario {
			if sc.Sim["instr/total"] == 0 {
				t.Errorf("%s: zero total instruction count", sc.Name)
			}
			if sc.Sim["timeline/digest"] == 0 || sc.Sim["timeline/windows"] == 0 {
				t.Errorf("%s: timeline digest missing: digest=%d windows=%d",
					sc.Name, sc.Sim["timeline/digest"], sc.Sim["timeline/windows"])
			}
		} else {
			if sc.Sim["net/deterministic/delivered"] == 0 {
				t.Errorf("%s: zero delivered packets: %v", sc.Name, sc.Sim)
			}
			for _, mode := range []string{"deterministic", "adaptive", "cr"} {
				if sc.Sim["net/"+mode+"/timeline_digest"] == 0 || sc.Sim["net/"+mode+"/timeline_windows"] == 0 {
					t.Errorf("%s: %s timeline digest missing: %v", sc.Name, mode, sc.Sim)
				}
			}
		}
	}
}

func TestPerfregRoundTripAndIdenticalCompare(t *testing.T) {
	s := recordOnce(t)
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Compare(s, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("identical snapshots failed the gate:\n%s", rep)
	}
	if rep.SimChecked == 0 || rep.SimEqual != rep.SimChecked {
		t.Fatalf("sim equality: %d/%d", rep.SimEqual, rep.SimChecked)
	}
	if !strings.Contains(rep.String(), "verdict: PASS") {
		t.Fatalf("report missing PASS verdict:\n%s", rep)
	}
}

// clone deep-copies a snapshot through its JSON representation.
func clone(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	path := filepath.Join(t.TempDir(), "clone.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	c, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPerfregSimDriftFails(t *testing.T) {
	s := recordOnce(t)
	bad := clone(t, s)
	// Inject a +20% instruction-cost regression into one scenario.
	sim := bad.Scenarios[1].Sim
	sim["instr/total"] = sim["instr/total"] * 12 / 10
	rep, err := Compare(s, bad)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("+20%% sim drift passed the gate:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "DRIFT") || !strings.Contains(rep.String(), "verdict: FAIL") {
		t.Fatalf("report does not call out the drift:\n%s", rep)
	}
}

func TestPerfregMissingMetricAndScenarioFail(t *testing.T) {
	s := recordOnce(t)
	bad := clone(t, s)
	delete(bad.Scenarios[0].Sim, "instr/total")
	bad.Scenarios = bad.Scenarios[:len(bad.Scenarios)-1]
	rep, err := Compare(s, bad)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("missing metric and scenario passed the gate")
	}
}

func TestPerfregIncomparableSnapshots(t *testing.T) {
	s := recordOnce(t)
	other := clone(t, s)
	other.Words = s.Words + 1
	if _, err := Compare(s, other); err == nil {
		t.Fatal("snapshots with different words compared without error")
	}
}

func TestPerfregBenchGate(t *testing.T) {
	s := recordOnce(t)
	old := clone(t, s)
	old.Benches = []BenchResult{{Name: "flitnet-tick-steady", NsPerOp: 1000, AllocsPerOp: 0}}

	// Slower but allocation-free: ns/op is not gated.
	slower := clone(t, s)
	slower.Benches = []BenchResult{{Name: "flitnet-tick-steady", NsPerOp: 5000, AllocsPerOp: 0}}
	rep, err := Compare(old, slower)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("ns/op growth failed the gate:\n%s", rep)
	}

	// One new allocation per op: fails, on any machine.
	leaky := clone(t, s)
	leaky.Benches = []BenchResult{{Name: "flitnet-tick-steady", NsPerOp: 900, AllocsPerOp: 1}}
	rep, err = Compare(old, leaky)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("allocs/op regression passed the gate:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "ALLOC REGRESSION") {
		t.Fatalf("report does not call out the allocation regression:\n%s", rep)
	}

	// A bench the old snapshot tracked must not silently disappear.
	gone := clone(t, s)
	rep, err = Compare(old, gone)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("dropped bench passed the gate")
	}

	// Benches absent from the old snapshot (schema 1) are informational.
	rep, err = Compare(gone, slower)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("new bench failed against a bench-less baseline:\n%s", rep)
	}
}

func TestPerfregRecordBenchesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmarks take a couple of seconds")
	}
	benches := recordBenches()
	if len(benches) != 9 {
		t.Fatalf("got %d benches, want 9", len(benches))
	}
	byName := make(map[string]BenchResult, len(benches))
	for _, b := range benches {
		byName[b.Name] = b
		if b.AllocsPerOp != 0 {
			t.Errorf("%s: %d allocs/op (%d B/op), want 0 — a hot path regressed", b.Name, b.AllocsPerOp, b.BytesPerOp)
		}
		if b.NsPerOp <= 0 {
			t.Errorf("%s: ns/op = %v", b.Name, b.NsPerOp)
		}
	}
	idle, dense := byName[BenchTickIdle], byName[BenchTickIdleDense]
	if idle.NsPerOp <= 0 || dense.NsPerOp/idle.NsPerOp < idleSpeedupFloor {
		t.Errorf("idle fast-forward speedup %.1fx under the %.0fx floor (dense %.0f ns/op, event %.0f ns/op)",
			dense.NsPerOp/idle.NsPerOp, idleSpeedupFloor, dense.NsPerOp, idle.NsPerOp)
	}
}

// TestPerfregIdleSpeedupGate exercises the within-snapshot fast-forward
// gate: a healthy ratio passes, a collapsed one fails, and snapshots from
// before the benches existed are not gated.
func TestPerfregIdleSpeedupGate(t *testing.T) {
	old := recordOnce(t)
	healthy := clone(t, old)
	healthy.Benches = []BenchResult{
		{Name: BenchTickIdle, NsPerOp: 10},
		{Name: BenchTickIdleDense, NsPerOp: 1000},
	}
	rep, err := Compare(old, healthy)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("100x speedup failed the gate:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "idle fast-forward 100x") {
		t.Fatalf("report does not show the speedup:\n%s", rep)
	}

	collapsed := clone(t, old)
	collapsed.Benches = []BenchResult{
		{Name: BenchTickIdle, NsPerOp: 500},
		{Name: BenchTickIdleDense, NsPerOp: 1000},
	}
	rep, err = Compare(old, collapsed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("2x speedup passed the %vx floor:\n%s", idleSpeedupFloor, rep)
	}

	// No idle benches recorded (pre-schema-3 snapshot): nothing to gate.
	rep, err = Compare(old, clone(t, old))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("bench-less snapshots failed the idle gate:\n%s", rep)
	}
}

// TestPerfregSchema1Accepted loads a schema-1 snapshot that still carries
// the host samples, rep count and parallel stamp older builds wrote: the
// reader ignores those fields, and the sim metrics gate as usual.
func TestPerfregSchema1Accepted(t *testing.T) {
	s := recordOnce(t)
	v1 := clone(t, s)
	v1.Schema = 1
	v1.Benches = nil
	data, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	// Decode numbers as json.Number so 64-bit digests survive the edit.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	doc["reps"], doc["parallel"] = 5, 1
	for _, sc := range doc["scenarios"].([]any) {
		sc.(map[string]any)["host"] = map[string]any{
			"wall_ns": []float64{1000, 1001}, "allocs": []float64{7, 7}, "alloc_bytes": []float64{64, 64},
		}
	}
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatalf("schema-1 snapshot rejected: %v", err)
	}
	rep, err := Compare(loaded, s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.SimEqual != rep.SimChecked {
		t.Fatalf("schema-1 snapshot with legacy host fields failed the gate:\n%s", rep)
	}
}

func TestPerfregSchemaRejected(t *testing.T) {
	s := recordOnce(t)
	bad := clone(t, s)
	bad.Schema = SchemaVersion + 1
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := bad.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

// TestPerfregMatchesCommittedBaseline is the simulator half of the
// behaviour contract: a fresh recording holds every sim metric of
// BENCH_PR10.json, exactly. Benches are recorded by their own smoke test,
// so only the sim keys are checked here.
func TestPerfregMatchesCommittedBaseline(t *testing.T) {
	baseline, err := ReadFile("../../BENCH_PR10.json")
	if err != nil {
		t.Fatal(err)
	}
	keys := 0
	for _, sc := range baseline.Scenarios {
		keys += len(sc.Sim)
	}
	rep, err := Compare(baseline, recordOnce(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.SimChecked != keys || rep.SimEqual != keys {
		var drift []string
		for _, d := range rep.Failing() {
			if d.Kind == "sim" {
				drift = append(drift, fmt.Sprintf("%s %s: %s", d.Scenario, d.Metric, d.Note))
			}
		}
		t.Fatalf("%d/%d of %d sim keys equal:\n%s", rep.SimEqual, rep.SimChecked, keys, strings.Join(drift, "\n"))
	}
}

// TestPerfregHistorySubsumedByNewest proves that gating only the newest
// committed snapshot loses nothing: every history snapshot passes against
// BENCH_PR10.json with each of its sim keys checked and exactly equal, and
// no bench at a higher allocs/op. A fresh recording equal to BENCH_PR10 on
// BENCH_PR10's keys is therefore equal to every history file on its keys.
func TestPerfregHistorySubsumedByNewest(t *testing.T) {
	newest, err := ReadFile("../../BENCH_PR10.json")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob("../../bench/history/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no history snapshots under bench/history")
	}
	for _, path := range paths {
		hist, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		keys := 0
		for _, sc := range hist.Scenarios {
			keys += len(sc.Sim)
		}
		rep, err := Compare(hist, newest)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !rep.Pass || rep.SimChecked != keys || rep.SimEqual != keys {
			t.Errorf("%s: %d/%d of %d sim keys equal, pass=%v:\n%s",
				path, rep.SimEqual, rep.SimChecked, keys, rep.Pass, rep)
		}
	}
}

// FuzzParse holds the snapshot loader to its contract on arbitrary input:
// it rejects cleanly, or the snapshot it returns re-encodes, as WriteFile
// encodes it, into bytes that Parse accepts and that re-encode to the same
// bytes. It never panics. The seed corpus under testdata/fuzz/FuzzParse
// holds BENCH_PR10.json and truncated and mistyped variants of it.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		enc, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			t.Fatalf("parsed snapshot does not encode: %v", err)
		}
		s2, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not parse: %v\n%s", err, enc)
		}
		enc2, err := json.MarshalIndent(s2, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("snapshot does not round-trip:\nfirst  %s\nsecond %s", enc, enc2)
		}
	})
}
