// Package perfreg is the repository's behaviour gate: it runs the
// canonical scenarios, records their deterministic simulation metrics
// (instruction-cost totals per role × feature × category, scheduler rounds,
// packet counts, flit stats, timeline and alert digests) and the
// allocation benchmarks, persists them as schema-versioned BENCH
// snapshots, and compares two snapshots into a pass/fail verdict (see
// compare.go): sim metrics gate at exact equality, allocs/op at
// no-regression, and the idle fast-forward speedup as a ratio within one
// snapshot.
//
// The paper measures *where the time goes* in simulated instructions;
// perfreg makes sure it keeps going to the same places: any PR that drifts
// an instruction count fails the exact-equality gate. Host wall time is
// not recorded here; the perfbench module measures it.
//
// Record must not run concurrently with other experiment runs (it installs
// the experiments package's global observer while collecting sim metrics).
package perfreg

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"msglayer/internal/cost"
	"msglayer/internal/experiments"
	"msglayer/internal/flitnet"
	"msglayer/internal/obs"
	"msglayer/internal/obs/monitor"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/report"
	"msglayer/internal/topology"
	"msglayer/internal/twin"
	"msglayer/internal/workload"
)

// SchemaVersion identifies the snapshot layout; bump on incompatible
// changes. Version 7 added the SLO alert digests (the canonical monitor
// rules replayed over each netload mode's recorded timeline, with the
// alert report's digest and incident count joining the exact-equality
// gate — any PR that shifts when an alert opens or closes fails the gate
// even if the totals agree) and the monitor-eval allocation benchmark.
// Version 6 added the analytic-twin calibration scenario (the
// per-regime MAPE and Pearson-r accuracy aggregates as permyriad sim keys,
// exact-equality gated like every other deterministic metric) and the
// twin-eval benchmark. Version 5 added the GOMAXPROCS stamp and the
// large-mesh tick benchmark. Version 4 added the timeline digests (per-scenario windowed
// metrics timelines hashed into sim keys, so any PR that shifts *when*
// events happen fails the exact-equality gate even if the totals agree)
// and the timeline-sample allocation benchmark. Version 3 added the
// event-driven engine benchmarks (idle fast-forward and sparse occupancy,
// with the dense-reference baseline recorded in the same run so the idle
// speedup gates within one snapshot). Version 2 added the parallelism
// stamp and the allocation benchmark section. Older snapshots still load:
// the new sections are simply absent, and absent sections are not gated.
const SchemaVersion = 7

// minSchemaVersion is the oldest snapshot layout this build still reads.
const minSchemaVersion = 1

// NetloadScenario names the flit-level sweep point recorded alongside the
// protocol scenarios.
const NetloadScenario = "netload-fattree-load100"

// TwinScenario names the analytic-twin calibration accuracy record: the
// per-regime MAPE and Pearson-r aggregates of the twin-vs-simulator sweep,
// stored as permyriad integers so the exact-equality gate applies.
const TwinScenario = "twin-calibration"

// Recording sizes: the protocol transfer size and the flit-level
// measurement length. Every committed snapshot was recorded at these.
const (
	recordWords         = 64
	recordNetloadCycles = 1000
)

// Snapshot is one recorded BENCH_PR<k>.json document. Fields older
// snapshots carry that this build no longer reads (the host samples, reps
// and parallel count) are ignored on load.
type Snapshot struct {
	Schema    int    `json:"schema"`
	Label     string `json:"label"`
	CreatedAt string `json:"created_at,omitempty"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Words is the transfer size the protocol scenarios ran with.
	Words int `json:"words"`
	// NetloadCycles is the measurement length of the flit-level point.
	NetloadCycles int `json:"netload_cycles"`
	// MaxProcs is the GOMAXPROCS the snapshot was recorded under: a
	// provenance stamp, read by no gate. Absent (schema < 5) means
	// unknown.
	MaxProcs  int              `json:"max_procs,omitempty"`
	Scenarios []ScenarioResult `json:"scenarios"`
	// Benches holds the allocation benchmarks (schema 2); allocs/op gates
	// at no-regression.
	Benches []BenchResult `json:"benches,omitempty"`
}

// ScenarioResult is one scenario's recorded metrics.
type ScenarioResult struct {
	Name string `json:"name"`
	// Sim holds the deterministic simulation metrics; identical code and
	// inputs must reproduce them bit-for-bit.
	Sim map[string]uint64 `json:"sim"`
}

// RecordConfig parameterizes Record.
type RecordConfig struct {
	// Label names the snapshot (e.g. "PR2").
	Label string
	// SkipBenches omits the allocation benchmarks, which cost about a
	// wall-clock second each.
	SkipBenches bool
	// Timestamp, when non-empty, is stored as CreatedAt.
	Timestamp string
}

// Record runs every canonical scenario and returns the populated snapshot.
// Each protocol scenario runs once under an observability hub to collect
// the sim metrics and once more unobserved, and the flit-level point runs
// bare and observed; each pair must agree, so observation that perturbs the
// simulation, or a nondeterministic scenario, is caught at record time
// rather than at the gate.
func Record(cfg RecordConfig) (*Snapshot, error) {
	snap := &Snapshot{
		Schema:        SchemaVersion,
		Label:         cfg.Label,
		CreatedAt:     cfg.Timestamp,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Words:         recordWords,
		NetloadCycles: recordNetloadCycles,
		MaxProcs:      runtime.GOMAXPROCS(0),
	}
	for _, name := range experiments.CanonicalScenarios() {
		res, err := recordProtocolScenario(name)
		if err != nil {
			return nil, fmt.Errorf("perfreg: %s: %w", name, err)
		}
		snap.Scenarios = append(snap.Scenarios, *res)
	}
	res, err := recordNetloadScenario()
	if err != nil {
		return nil, fmt.Errorf("perfreg: %s: %w", NetloadScenario, err)
	}
	snap.Scenarios = append(snap.Scenarios, *res)
	res, err = recordTwinScenario()
	if err != nil {
		return nil, fmt.Errorf("perfreg: %s: %w", TwinScenario, err)
	}
	snap.Scenarios = append(snap.Scenarios, *res)
	if !cfg.SkipBenches {
		snap.Benches = recordBenches()
	}
	return snap, nil
}

// Timeline window widths for the recorded digests: scheduler rounds for
// the protocol scenarios, flit cycles for the netload point. Changing
// either changes every digest, which the exact-equality gate flags the
// same way a schema bump would.
const (
	protoTimelineInterval = 8
	netTimelineInterval   = 100
)

// recordProtocolScenario records one canonical protocol scenario.
func recordProtocolScenario(name string) (*ScenarioResult, error) {
	// Observed run: sim metrics. A timeline sampler rides the hub's round
	// clock so the snapshot pins not just the totals but their distribution
	// over simulated time.
	hub := obs.NewHub()
	sampler := timeline.New(hub.Metrics, timeline.Config{Interval: protoTimelineInterval})
	hub.SetTickListener(sampler.Advance)
	experiments.SetObserver(hub)
	cells, err := experiments.RunCanonical(name, recordWords)
	experiments.SetObserver(nil)
	if err != nil {
		return nil, err
	}
	// The single-packet scenario never enters the observed run loop, so the
	// hub's round clock stays at zero; Finish's clamp to round 1 puts its
	// whole run in one partial window instead of losing it.
	tl, err := sampler.Finish(hub.Round())
	if err != nil {
		return nil, err
	}
	sim := simFromCells(cells)
	sim["rounds"] = hub.Metrics.CounterValue(obs.Key{Name: "run_rounds_total", Node: -1})
	for _, node := range []int{0, 1} {
		sim["packets/sent"] += hub.Metrics.CounterValue(obs.Key{Name: "packets_sent_total", Node: node, Proto: "cmam"})
		sim["packets/received"] += hub.Metrics.CounterValue(obs.Key{Name: "packets_received_total", Node: node, Proto: "cmam"})
	}
	sim["timeline/digest"] = tl.DigestValue
	sim["timeline/windows"] = uint64(len(tl.Windows))

	// Unobserved rerun: observation must not change the instruction cells,
	// and neither may anything else between two runs.
	again, err := experiments.RunCanonical(name, recordWords)
	if err != nil {
		return nil, err
	}
	if !cellsEqual(cells, again) {
		return nil, fmt.Errorf("unobserved rerun produced different instruction cells — scenario is nondeterministic")
	}
	return &ScenarioResult{Name: name, Sim: sim}, nil
}

// simFromCells flattens a role × feature × category breakdown into the
// snapshot's flat metric map.
func simFromCells(cells report.Cells) map[string]uint64 {
	sim := make(map[string]uint64)
	var total uint64
	for _, r := range cost.Roles() {
		for _, f := range cost.Features() {
			v := cells[r][f]
			prefix := "instr/" + roleSlug(r) + "/" + featureSlug(f) + "/"
			sim[prefix+"reg"] = v.Reg
			sim[prefix+"mem"] = v.Mem
			sim[prefix+"dev"] = v.Dev
			total += v.Total()
		}
	}
	sim["instr/total"] = total
	return sim
}

// cellsEqual compares two breakdowns cell by cell.
func cellsEqual(a, b report.Cells) bool {
	for _, r := range cost.Roles() {
		for _, f := range cost.Features() {
			if a[r][f] != b[r][f] {
				return false
			}
		}
	}
	return true
}

// roleSlug is the snapshot key fragment for a role.
func roleSlug(r cost.Role) string {
	if r == cost.Source {
		return "src"
	}
	return "dst"
}

// featureSlug is the snapshot key fragment for a feature.
func featureSlug(f cost.Feature) string {
	switch f {
	case cost.Base:
		return "base"
	case cost.BufferMgmt:
		return "buffer"
	case cost.InOrder:
		return "inorder"
	default:
		return "fault"
	}
}

// recordNetloadScenario records the flit-level sweep point: a 4-ary 2-level
// fat tree under uniform traffic at offered load 0.1, for all three routing
// modes. The flit simulator is seeded, so its stats are deterministic.
func recordNetloadScenario() (*ScenarioResult, error) {
	stats, err := runNetloadPoint(recordNetloadCycles, false)
	if err != nil {
		return nil, err
	}
	// Observed pass: the same point under a hub with a timeline sampler on
	// the cycle clock. Observation must not change the flit stats, and the
	// per-mode timeline digests join the exact-equality gate.
	observed, err := runNetloadPoint(recordNetloadCycles, true)
	if err != nil {
		return nil, err
	}
	for k, v := range stats {
		if observed[k] != v {
			return nil, fmt.Errorf("observation drifted %s: %d observed, %d bare", k, observed[k], v)
		}
	}
	return &ScenarioResult{Name: NetloadScenario, Sim: observed}, nil
}

// recordTwinScenario runs the analytic twin's full calibration sweep and
// flattens the accuracy aggregates into sim keys. The sweep is
// deterministic, so the permyriad MAPE and Pearson values gate under exact
// equality; record itself refuses a sweep that misses the accuracy floors.
// The sweep fans across GOMAXPROCS workers; its report is byte-identical at
// any worker count.
func recordTwinScenario() (*ScenarioResult, error) {
	rep, err := twin.Calibrate(twin.Options{})
	if err != nil {
		return nil, err
	}
	if err := rep.Check(twin.DefaultThresholds()); err != nil {
		return nil, err
	}
	pm := func(v int64) uint64 {
		if v < 0 {
			return 0
		}
		return uint64(v)
	}
	sim := map[string]uint64{
		"twin_net_points":   uint64(len(rep.Net)),
		"twin_proto_points": uint64(len(rep.Proto)),
	}
	for _, ra := range rep.NetAccuracy {
		for _, m := range ra.Metrics {
			sim[fmt.Sprintf("twin_mape_pm|%s|%s", ra.Regime, m.Metric)] = pm(m.MAPEPm)
			sim[fmt.Sprintf("twin_pearson_pm|%s|%s", ra.Regime, m.Metric)] = pm(m.PearsonPm)
		}
	}
	for _, m := range rep.ProtoAccuracy {
		sim["twin_mape_pm|protocol|"+m.Metric] = pm(m.MAPEPm)
		sim["twin_pearson_pm|protocol|"+m.Metric] = pm(m.PearsonPm)
	}
	return &ScenarioResult{Name: TwinScenario, Sim: sim}, nil
}

// netloadLoad and netloadSeed pin the recorded sweep point.
const (
	netloadLoad = 0.1
	netloadSeed = 1
)

// runNetloadPoint runs the pinned sweep point once per routing mode and
// returns the flattened deterministic stats. With observe set, each mode
// additionally runs under a hub whose timeline sampler rides the cycle
// listener, and the reconciled timeline's digest and window count join the
// returned map.
func runNetloadPoint(cycles int, observe bool) (map[string]uint64, error) {
	out := make(map[string]uint64)
	for _, mode := range []flitnet.Mode{flitnet.Deterministic, flitnet.Adaptive, flitnet.CR} {
		topo, err := topology.NewFatTree(4, 2)
		if err != nil {
			return nil, err
		}
		net, err := flitnet.New(flitnet.Config{
			Topology:        topo,
			Mode:            mode,
			BufferFlits:     3,
			InjectQueue:     8,
			VirtualChannels: 1,
		})
		if err != nil {
			return nil, err
		}
		var sampler *timeline.Sampler
		if observe {
			hub := obs.NewHub()
			net.SetFlitObserver(hub.FlitScope())
			sampler = timeline.New(hub.Metrics, timeline.Config{Interval: netTimelineInterval})
			net.SetCycleListener(sampler.Advance)
		}
		gen, err := workload.NewGenerator(workload.Uniform{}, net.Nodes(), netloadLoad, netloadSeed)
		if err != nil {
			return nil, err
		}
		if !workload.Drive(net, gen, cycles) {
			return nil, fmt.Errorf("%s: the network did not drain", mode)
		}
		st := net.FlitStats()
		prefix := "net/" + mode.String() + "/"
		if sampler != nil {
			tl, err := sampler.Finish(net.Cycle())
			if err != nil {
				return nil, fmt.Errorf("%s: %w", mode, err)
			}
			out[prefix+"timeline_digest"] = tl.DigestValue
			out[prefix+"timeline_windows"] = uint64(len(tl.Windows))
			// The canonical SLO rules replay over the same timeline; the
			// alert report digest pins when every alert opens and closes.
			// Blame is not wired here (it lives above perfreg in the import
			// graph) — the report digest excludes blame, so these digests
			// match reports produced with blame attached.
			mon, err := monitor.New(monitor.CanonicalRules())
			if err != nil {
				return nil, err
			}
			if err := mon.Replay(tl); err != nil {
				return nil, fmt.Errorf("%s: %w", mode, err)
			}
			rep := mon.Snapshot("")
			out[prefix+"alert_digest"] = rep.DigestValue
			out[prefix+"alert_incidents"] = uint64(len(rep.Incidents))
		}
		out[prefix+"injected"] = st.Injected
		out[prefix+"delivered"] = st.Delivered
		out[prefix+"backpressure"] = st.Backpressure
		out[prefix+"kills"] = st.Kills
		out[prefix+"retries"] = st.Retries
		out[prefix+"flit_moves"] = st.FlitMoves
		out[prefix+"failed_worms"] = st.FailedWorms
		out[prefix+"cycles"] = st.Cycles
		out[prefix+"latency_sum"] = st.LatencySum
		out[prefix+"latency_count"] = st.LatencyCount
		out[prefix+"latency_max"] = st.LatencyMax
	}
	return out, nil
}

// WriteFile persists the snapshot as indented JSON.
func (s *Snapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a snapshot, rejecting unknown schema versions.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("perfreg: %s: %w", path, err)
	}
	return s, nil
}

// Parse decodes a snapshot from raw JSON, rejecting unknown schema
// versions.
func Parse(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	if s.Schema < minSchemaVersion || s.Schema > SchemaVersion {
		return nil, fmt.Errorf("schema %d, this build reads %d through %d",
			s.Schema, minSchemaVersion, SchemaVersion)
	}
	return &s, nil
}
