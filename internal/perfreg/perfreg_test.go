package perfreg

import (
	"path/filepath"
	"strings"
	"testing"
)

// tinyConfig keeps recording fast in tests: few reps, small transfers, and
// no allocation benchmarks (those get their own smoke test). Parallel is
// left at the GOMAXPROCS default so the suite exercises the fanned path.
func tinyConfig() RecordConfig {
	return RecordConfig{Label: "test", Reps: 2, Words: 16, NetloadCycles: 100, SkipBenches: true}
}

// record is a cached tiny snapshot so the suite pays for one recording.
var recorded *Snapshot

func recordOnce(t *testing.T) *Snapshot {
	t.Helper()
	if recorded == nil {
		s, err := Record(tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		recorded = s
	}
	return recorded
}

func TestPerfregRecordShape(t *testing.T) {
	s := recordOnce(t)
	if s.Schema != SchemaVersion {
		t.Fatalf("schema = %d, want %d", s.Schema, SchemaVersion)
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
			// aggregates: no host samples (evaluation is closed form) and
			// no instruction totals.
			if len(sc.Host.WallNS) != 0 {
				t.Errorf("%s: unexpected host samples", sc.Name)
			}
			if sc.Sim["twin_net_points"] == 0 || sc.Sim["twin_proto_points"] == 0 {
				t.Errorf("%s: point counts missing: %v", sc.Name, sc.Sim)
			}
			continue
		}
		if len(sc.Host.WallNS) != 2 || len(sc.Host.Allocs) != 2 || len(sc.Host.AllocBytes) != 2 {
			t.Errorf("%s: host samples %d/%d/%d, want 2 each",
				sc.Name, len(sc.Host.WallNS), len(sc.Host.Allocs), len(sc.Host.AllocBytes))
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
	rep, err := Compare(s, loaded, CompareOptions{})
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
	rep, err := Compare(s, bad, CompareOptions{})
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
	rep, err := Compare(s, bad, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("missing metric and scenario passed the gate")
	}
}

func TestPerfregHostGate(t *testing.T) {
	s := recordOnce(t)

	// A clear, consistent +50% wall regression must fail...
	slow := clone(t, s)
	for i := range slow.Scenarios {
		slow.Scenarios[i].Host.WallNS = []float64{1500, 1501, 1502, 1499, 1498}
	}
	base := clone(t, s)
	for i := range base.Scenarios {
		base.Scenarios[i].Host.WallNS = []float64{1000, 1001, 1002, 999, 998}
	}
	rep, err := Compare(base, slow, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("+50%% host regression passed:\n%s", rep)
	}

	// ...unless the gate runs sim-only (the CI mode)...
	rep, err = Compare(base, slow, CompareOptions{SimOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("sim-only compare failed on host noise:\n%s", rep)
	}

	// ...or the threshold allows it.
	rep, err = Compare(base, slow, CompareOptions{HostThreshold: 0.60})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("+50%% regression failed a +60%% threshold:\n%s", rep)
	}
}

func TestPerfregIncomparableSnapshots(t *testing.T) {
	s := recordOnce(t)
	other := clone(t, s)
	other.Words = s.Words + 1
	if _, err := Compare(s, other, CompareOptions{}); err == nil {
		t.Fatal("snapshots with different words compared without error")
	}
}

func TestPerfregSerialRecordingMatchesParallel(t *testing.T) {
	cfg := tinyConfig()
	cfg.Parallel = 1
	serial, err := Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := recordOnce(t)
	rep, err := Compare(serial, s, CompareOptions{SimOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("parallel recording drifted from serial sim metrics:\n%s", rep)
	}
}

func TestPerfregBenchGate(t *testing.T) {
	s := recordOnce(t)
	old := clone(t, s)
	old.Benches = []BenchResult{{Name: "flitnet-tick-steady", NsPerOp: 1000, AllocsPerOp: 0}}

	// Slower but allocation-free: ns/op is not gated.
	slower := clone(t, s)
	slower.Benches = []BenchResult{{Name: "flitnet-tick-steady", NsPerOp: 5000, AllocsPerOp: 0}}
	rep, err := Compare(old, slower, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("ns/op growth failed the gate:\n%s", rep)
	}

	// One new allocation per op: fails, on any machine.
	leaky := clone(t, s)
	leaky.Benches = []BenchResult{{Name: "flitnet-tick-steady", NsPerOp: 900, AllocsPerOp: 1}}
	rep, err = Compare(old, leaky, CompareOptions{})
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
	rep, err = Compare(old, gone, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("dropped bench passed the gate")
	}

	// Benches absent from the old snapshot (schema 1) are informational.
	rep, err = Compare(gone, slower, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("new bench failed against a bench-less baseline:\n%s", rep)
	}
}

func TestPerfregParallelMismatchSkipsHostGate(t *testing.T) {
	s := recordOnce(t)
	base := clone(t, s)
	base.Parallel = 1
	for i := range base.Scenarios {
		base.Scenarios[i].Host.WallNS = []float64{1000, 1001, 1002, 999, 998}
	}
	slow := clone(t, s)
	slow.Parallel = 4
	for i := range slow.Scenarios {
		slow.Scenarios[i].Host.WallNS = []float64{1500, 1501, 1502, 1499, 1498}
	}
	rep, err := Compare(base, slow, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("host gate fired across different recording parallelism:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "host metrics not gated") {
		t.Fatalf("report does not explain the skipped host gate:\n%s", rep)
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
	rep, err := Compare(old, healthy, CompareOptions{SimOnly: true})
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
	rep, err = Compare(old, collapsed, CompareOptions{SimOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("2x speedup passed the %vx floor:\n%s", idleSpeedupFloor, rep)
	}

	// No idle benches recorded (pre-schema-3 snapshot): nothing to gate.
	rep, err = Compare(old, clone(t, old), CompareOptions{SimOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("bench-less snapshots failed the idle gate:\n%s", rep)
	}
}

func TestPerfregSchema1Accepted(t *testing.T) {
	s := recordOnce(t)
	v1 := clone(t, s)
	v1.Schema = 1
	v1.Parallel = 0
	v1.Benches = nil
	path := filepath.Join(t.TempDir(), "v1.json")
	if err := v1.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatalf("schema-1 snapshot rejected: %v", err)
	}
	if loaded.parallelism() != 1 {
		t.Fatalf("legacy snapshot parallelism = %d, want 1", loaded.parallelism())
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
