// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time under a seed, checks every output, and prints
// the end-to-end metrics (untraced) or the per-layer metrics (traced) as
// one JSON object on the last line of standard output. A human-readable
// report goes to standard error. See README.md for the workloads, the
// metrics and what each layer metric is predicted to move.
//
// Usage:
//
//	bash perfbench/run.sh --workload flit-grid --seed 1 --seconds 15 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"msglayer/internal/experiments"
)

// plan is a workload's generated inputs; pass runs them once, recording
// into res and, when tr is non-nil, into the tracer.
type plan interface {
	pass(tr *tracer, res *passResult)
}

// workloads maps each workload's name to the function that builds its
// inputs from a seed.
var workloads = map[string]func(seed int64) (plan, error){
	"flit-grid":     func(seed int64) (plan, error) { return newFlitPlan(seed, false), nil },
	"flit-observed": func(seed int64) (plan, error) { return newFlitPlan(seed, true), nil },
	"proto-mix":     func(seed int64) (plan, error) { return newProtoPlan(seed) },
}

const (
	setupReps = 9
	minPasses = 3
	// maxTracedPasses bounds the spans a traced run keeps: proto-mix
	// records about 200 000 per pass. Later passes run untraced.
	maxTracedPasses = 3
	maxReportedErrs = 5
)

//go:embed expected_digests.json
var expectedDigestsJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: flit-grid, flit-observed or proto-mix")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	spansDir := fs.String("spans-dir", ".bench_build/spans", "where a traced run writes its spans")
	record := fs.String("record-digests", "", "write the expected digests of seeds 0-20 of every workload to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordDigests(*record, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	setup, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %v, --trace 0 or 1, --seconds > 0\n", sortedKeys(workloads))
		return 2
	}
	var expected map[string]map[string]string
	if err := json.Unmarshal(expectedDigestsJSON, &expected); err != nil {
		fmt.Fprintln(stderr, "perfbench: expected digests:", err)
		return 1
	}

	r := &runner{name: *name, stderr: stderr, ref: newRefKernel()}
	p, err := r.setup(setup, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: setup:", err)
		return 1
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	want, hasWant := expected[*name][strconv.FormatInt(*seed, 10)]
	r.measure(p, tr, time.Duration(*seconds*float64(time.Second)))
	r.checkDigest(want, hasWant)

	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if tr != nil {
		out.Metrics = r.layerMetrics(tr)
		path := filepath.Join(*spansDir, *name+".tsv")
		if err := tr.writeTSV(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %d written to %s\n", len(tr.spans), path)
	} else {
		out.Metrics = r.endToEnd()
	}
	r.report(out)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passResult is what one pass over a workload's inputs produced.
type passResult struct {
	ops, failed int
	errs        []error
	opNs        []int64 // host time per operation
	work        uint64  // simulated work: flit moves or instructions
	digest      *digest // every simulated statistic, in operation order
	counts      map[string]float64

	// ref, when set, is timed after every refEveryNs of operation time;
	// refNs holds the samples and refTotal their sum.
	ref                *refKernel
	refNs              []int64
	sinceRef, refTotal int64
}

func newPassResult(ref *refKernel) *passResult {
	return &passResult{digest: newDigest(), counts: map[string]float64{}, ref: ref}
}

// opDone records the host time of an operation that started at t0.
func (r *passResult) opDone(t0 time.Time) {
	d := int64(time.Since(t0))
	r.opNs = append(r.opNs, d)
	r.sinceRef += d
	if r.ref != nil && r.sinceRef >= refEveryNs {
		r.sinceRef = 0
		r.sampleRef()
	}
}

func (r *passResult) sampleRef() {
	ns := r.ref.run()
	r.refNs = append(r.refNs, ns)
	r.refTotal += ns
}

func (r *passResult) fail(err error) {
	r.failed++
	if len(r.errs) < maxReportedErrs {
		r.errs = append(r.errs, err)
	}
}

func (r *passResult) add(name string, v float64) { r.counts[name] += v }

// runner holds one run's measurements.
type runner struct {
	name              string
	stderr            io.Writer
	ref               *refKernel
	setupNs           []int64 // normalized, per set-up
	attempted, failed int

	wallNs, allocBytes []int64   // per untraced pass; wall excludes the kernel
	rssKiB             []int64   // peak resident set, per untraced pass
	refNs              []int64   // reference kernel median, per untraced pass
	tracedNs           []int64   // per traced pass
	opNs               [][]int64 // per untraced pass, per operation, normalized
	work, ops          uint64    // per pass
	counts             map[string]float64
	digests            []uint64
}

// setup checks the paper's tables and figures and builds the workload's
// inputs, setupReps times, keeping the last plan; setup_s is the median.
// A failed paper comparison counts as one failed operation.
func (r *runner) setup(build func(seed int64) (plan, error), seed int64) (plan, error) {
	var p plan
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		bad, err := paperMismatches()
		if err != nil {
			return nil, err
		}
		if p, err = build(seed); err != nil {
			return nil, err
		}
		r.setupNs = append(r.setupNs, r.normalize(int64(time.Since(t0)), r.refMedian(refMinPass)))
		if i == 0 {
			r.attempted++
			if bad > 0 {
				r.failed++
				fmt.Fprintf(r.stderr, "FAIL: %d paper comparisons do not match\n", bad)
			}
		}
	}
	return p, nil
}

// refMedian times the reference kernel n times and returns the median.
func (r *runner) refMedian(n int) int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = r.ref.run()
	}
	return int64(median(v))
}

// normalize scales a host time measured while the reference kernel took
// refNs to the host speed at which it takes refNominalNs.
func (r *runner) normalize(ns, refNs int64) int64 {
	return int64(float64(ns) * refNominalNs / float64(refNs))
}

// paperMismatches counts the comparisons of Tables 1-3 and Figures 6 and 8
// whose measured value differs from the paper's.
func paperMismatches() (int, error) {
	results, err := experiments.AllWith(1)
	if err != nil {
		return 0, err
	}
	bad := 0
	for _, res := range results {
		for _, c := range res.Comparisons {
			if !c.Match() {
				bad++
			}
		}
	}
	return bad, nil
}

// measure runs passes until the time is up. A traced run alternates
// untraced and traced passes, up to maxTracedPasses traced ones, so the
// tracing overhead is measured in one process; only the untraced passes of an untraced run feed the
// end-to-end metrics. Untraced passes time the reference kernel between
// operations; their operation times are normalized by the pass's median
// kernel time.
func (r *runner) measure(p plan, tr *tracer, d time.Duration) {
	start := time.Now()
	var ms runtime.MemStats
	for pass := 0; ; pass++ {
		traced := tr != nil && pass%2 == 1 && len(r.tracedNs) < maxTracedPasses
		// Return freed memory to the OS and reset the peak resident set,
		// so VmHWM after the pass is that pass's own peak.
		debug.FreeOSMemory()
		resetPeakRSS()
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		var passTr *tracer
		var root spanID
		ref := r.ref
		if traced {
			passTr, ref = tr, nil
			root = tr.open("bench.pass")
		}
		res := newPassResult(ref)
		t0 := time.Now()
		p.pass(passTr, res)
		wall := int64(time.Since(t0)) - res.refTotal
		passTr.close(root)
		for ref != nil && len(res.refNs) < refMinPass {
			res.sampleRef()
		}
		runtime.ReadMemStats(&ms)
		rss := peakRSSMB()

		r.attempted += res.ops
		r.failed += res.failed
		for _, err := range res.errs {
			fmt.Fprintln(r.stderr, "FAIL:", err)
		}
		r.digests = append(r.digests, res.digest.sum())
		r.work, r.ops = res.work, uint64(res.ops)
		if traced {
			r.tracedNs = append(r.tracedNs, wall)
			r.counts = res.counts
		} else {
			refNs := int64(median(res.refNs))
			r.wallNs = append(r.wallNs, wall)
			r.refNs = append(r.refNs, refNs)
			kernelBytes := uint64(len(res.refNs)) * r.ref.allocBytes
			r.allocBytes = append(r.allocBytes, int64(ms.TotalAlloc-alloc0-kernelBytes))
			r.rssKiB = append(r.rssKiB, int64(rss*1024))
			for i, ns := range res.opNs {
				res.opNs[i] = r.normalize(ns, refNs)
			}
			r.opNs = append(r.opNs, res.opNs)
		}
		done := len(r.wallNs) >= minPasses && (tr == nil || len(r.tracedNs) >= minPasses)
		if done && time.Since(start) >= d {
			return
		}
	}
}

// checkDigest requires every pass to produce the same digest and, for a
// seed with a recorded digest, that one. A mismatching pass fails all of
// its operations.
func (r *runner) checkDigest(want string, hasWant bool) {
	perPass := int(r.ops)
	for i, d := range r.digests {
		got := formatDigest(d)
		switch {
		case hasWant && got != want:
			fmt.Fprintf(r.stderr, "FAIL: pass %d digest %s, recorded %s\n", i, got, want)
		case !hasWant && d != r.digests[0]:
			fmt.Fprintf(r.stderr, "FAIL: pass %d digest %s differs from pass 0's %s\n", i, got, formatDigest(r.digests[0]))
		default:
			continue
		}
		r.failed += perPass
	}
	status := "no recorded digest for this seed"
	switch {
	case hasWant && formatDigest(r.digests[0]) == want:
		status = "matches the recorded digest"
	case hasWant:
		status = "recorded " + want
	}
	fmt.Fprintf(r.stderr, "digest %s %s (%s)\n", r.name, formatDigest(r.digests[0]), status)
}

// endToEnd derives the end-to-end metrics from the untraced passes. Every
// time is normalized to the reference kernel's nominal speed (see
// refKernel). Bursts of stolen time land on a few operations of a pass, so
// each operation's time is its median over the passes, wall_s is the sum
// of those medians (a typical pass) and the percentiles are taken over
// them.
func (r *runner) endToEnd() map[string]metric {
	opMedian := make([]int64, len(r.opNs[0]))
	samples := make([]int64, len(r.opNs))
	var wall float64
	for i := range opMedian {
		for p := range r.opNs {
			samples[p] = r.opNs[p][i]
		}
		opMedian[i] = int64(median(samples))
		wall += float64(opMedian[i])
	}
	sort.Slice(opMedian, func(i, j int) bool { return opMedian[i] < opMedian[j] })
	m := map[string]metric{
		"setup_s":        {median(r.setupNs) / 1e9, "s"},
		"wall_s":         {wall / 1e9, "s"},
		"peak_rss_mb":    {median(r.rssKiB) / 1024, "MiB"},
		"alloc_mb":       {median(r.allocBytes) / (1 << 20), "MiB"},
		"ops_per_s":      {float64(r.ops) / (wall / 1e9), "1/s"},
		"sim_work_per_s": {float64(r.work) / (wall / 1e9), "1/s"},
	}
	m["op_p50_us"] = metric{quantile(opMedian, 0.50) / 1e3, "us"}
	m["op_p99_us"] = metric{quantile(opMedian, 0.99) / 1e3, "us"}
	return m
}

// recordDigests writes the digest of one pass of seeds 0-20 of every
// workload, the values a behaviour-preserving change must reproduce.
func recordDigests(path string, stderr io.Writer) error {
	out := map[string]map[string]string{}
	for _, name := range sortedKeys(workloads) {
		out[name] = map[string]string{}
		for seed := int64(0); seed <= 20; seed++ {
			p, err := workloads[name](seed)
			if err != nil {
				return err
			}
			res := newPassResult(nil)
			p.pass(nil, res)
			if res.failed > 0 {
				return fmt.Errorf("%s seed %d: %v", name, seed, errors.Join(res.errs...))
			}
			out[name][strconv.FormatInt(seed, 10)] = formatDigest(res.digest.sum())
			fmt.Fprintf(stderr, "%s seed %d: %s\n", name, seed, out[name][strconv.FormatInt(seed, 10)])
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// median returns the median of xs (which it leaves unsorted).
func median(xs []int64) float64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return float64(s[n/2-1]+s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return float64(sorted[max(0, min(i, len(sorted)-1))])
}

// digest is an FNV-1a 64 hash over a sequence of integers.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) ints(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			d.h ^= v & 0xff
			d.h *= 1099511628211
			v >>= 8
		}
	}
}

func (d *digest) sum() uint64 { return d.h }

func formatDigest(v uint64) string { return fmt.Sprintf("%016x", v) }
