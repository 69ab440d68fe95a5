package main

import (
	"errors"
	"fmt"
	"time"

	"msglayer/internal/critpath"
	"msglayer/internal/flitnet"
	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/obs/monitor"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/topology"
	"msglayer/internal/workload"
)

// Flit-engine settings shared by every grid point. They match netload's
// defaults, and the engine knobs that could depend on the host are pinned:
// one shard (the serial engine), the event-driven core rather than the
// dense reference, and an explicit virtual-channel count per point.
const (
	flitBufferFlits = 3
	flitInjectQueue = 8
	flitDrainBudget = 200000
	fattreeCycles   = 10000 // per fat-tree point on flit-grid
	observedCycles  = 4000  // per point on flit-observed
	meshCycles      = 3000  // per 8x8 mesh point (4x the nodes of the fat tree)
)

var gridLoads = []float64{0.02, 0.05, 0.1, 0.2, 0.3}

// flitPoint is one (topology, mode, load) run of the flit engine.
type flitPoint struct {
	mesh   bool // 8x8 mesh; otherwise the 4-ary 2-tree
	mode   flitnet.Mode
	vcs    int
	load   float64
	cycles int
	seed   int64
}

func (p flitPoint) String() string {
	topo := "fattree"
	if p.mesh {
		topo = "mesh8x8"
	}
	return fmt.Sprintf("%s/%s/vc%d/load=%.2f", topo, p.mode, p.vcs, p.load)
}

// flitPlan is a flit workload's inputs: its grid, and whether every
// observability layer is stacked on each point.
type flitPlan struct {
	points   []flitPoint
	observed bool
	rules    *monitor.RuleSet
}

// newFlitPlan builds the Figure-6 style grid: the fat tree under all three
// routing modes at every load, then (flit-grid only) an 8x8 adaptive mesh
// with two virtual channels at one idle and one saturating load. Every
// point's uniform traffic is drawn from the run's seed.
func newFlitPlan(seed int64, observed bool) *flitPlan {
	p := &flitPlan{observed: observed}
	cycles := fattreeCycles
	if observed {
		cycles = observedCycles
		p.rules = monitor.CanonicalRules()
	}
	for _, load := range gridLoads {
		for _, mode := range []flitnet.Mode{flitnet.Deterministic, flitnet.Adaptive, flitnet.CR} {
			p.points = append(p.points, flitPoint{mode: mode, vcs: 1, load: load, cycles: cycles, seed: seed})
		}
	}
	if !observed {
		for _, load := range []float64{0.02, 0.3} {
			p.points = append(p.points, flitPoint{mesh: true, mode: flitnet.Adaptive, vcs: 2, load: load, cycles: meshCycles, seed: seed})
		}
	}
	return p
}

func (p *flitPlan) pass(tr *tracer, res *passResult) {
	for i, pt := range p.points {
		tr.setOp(i)
		op := tr.open("bench.point")
		t0 := time.Now()
		err := p.runPoint(pt, tr, res)
		res.opDone(t0)
		tr.close(op)
		res.ops++
		if err != nil {
			res.fail(fmt.Errorf("%s: %w", pt, err))
		}
	}
	tr.setOp(-1)
}

// runPoint runs one grid point and checks its outputs: the network drains,
// every accepted packet is received exactly once at its destination (in
// flow order unless routing is adaptive) or counted as a failed worm, and,
// when observed, the timeline and critical-path reconstructions reconcile
// with no trace events dropped.
func (p *flitPlan) runPoint(pt flitPoint, tr *tracer, res *passResult) error {
	sp := tr.open("flitnet.new")
	var topo topology.Topology
	var err error
	if pt.mesh {
		topo, err = topology.NewMesh(8, 8)
	} else {
		topo, err = topology.NewFatTree(4, 2)
	}
	if err != nil {
		tr.close(sp)
		return err
	}
	net, err := flitnet.New(flitnet.Config{
		Topology:        topo,
		Mode:            pt.mode,
		BufferFlits:     flitBufferFlits,
		InjectQueue:     flitInjectQueue,
		VirtualChannels: pt.vcs,
		DenseReference:  false,
		Shards:          1,
	})
	tr.close(sp)
	if err != nil {
		return err
	}
	defer net.Close()
	nodes := net.Nodes()

	sp = tr.open("workload.new")
	gen, err := workload.NewGenerator(workload.Uniform{}, nodes, pt.load, pt.seed)
	tr.close(sp)
	if err != nil {
		return err
	}

	var hub *obs.Hub
	var sampler *timeline.Sampler
	tick := tr.agg("flitnet.tick")
	if p.observed {
		sp = tr.open("obs.attach")
		hub = obs.NewHub()
		net.SetFlitObserver(hub.FlitScope())
		tr.close(sp)
		sp = tr.open("timeline.new")
		sampler = timeline.New(hub.Metrics, timeline.Config{Interval: timeline.DefaultInterval})
		tr.close(sp)
		if tr == nil {
			net.SetCycleListener(sampler.Advance)
		} else {
			// The sampler runs inside Tick, so its span is a child of
			// the tick aggregate.
			tr.push(tick)
			adv := tr.agg("timeline.advance")
			tr.pop()
			net.SetCycleListener(func(c uint64) {
				t0 := tr.begin()
				sampler.Advance(c)
				tr.add(adv, t0)
			})
		}
	}

	// Each accepted packet carries its acceptance sequence number as its
	// one payload word; src/dst record where it must arrive.
	var src, dst []int32
	var offered, backpressured uint64
	word := make([]network.Word, 1)
	cyc := tr.agg("workload.cycle")
	inj := tr.agg("flitnet.inject")
	for c := 0; c < pt.cycles; c++ {
		t0 := tr.begin()
		arrivals := gen.Cycle()
		tr.add(cyc, t0)
		offered += uint64(len(arrivals))
		for _, a := range arrivals {
			word[0] = network.Word(len(src))
			t0 = tr.begin()
			err := net.Inject(network.Packet{Src: a.Src, Dst: a.Dst, Data: word})
			tr.add(inj, t0)
			switch {
			case err == nil:
				src = append(src, int32(a.Src))
				dst = append(dst, int32(a.Dst))
			case errors.Is(err, network.ErrBackpressure):
				// Refusal at saturation is part of the measurement.
				backpressured++
			default:
				return err
			}
		}
		t0 = tr.begin()
		net.Tick(1)
		tr.add(tick, t0)
	}

	sp = tr.open("flitnet.drain")
	drained := net.TickUntilQuiet(flitDrainBudget)
	tr.close(sp)
	seen := make([]bool, len(src))
	last := make([]int64, nodes*nodes) // last sequence per flow, -1 before any
	for i := range last {
		last[i] = -1
	}
	var received uint64
	var checkErr error
	h := newDigest()
	recv := tr.agg("flitnet.recv")
	for node := 0; node < nodes; node++ {
		for {
			t0 := tr.begin()
			pkt, ok := net.TryRecv(node)
			tr.add(recv, t0)
			if !ok {
				break
			}
			received++
			if checkErr != nil {
				continue
			}
			checkErr = checkDelivery(pkt, node, pt.mode, src, dst, seen, last, nodes)
			h.ints(uint64(node), uint64(pkt.Src), uint64(pkt.Data[0]))
		}
	}
	if sampler != nil {
		sampler.Flush(net.Cycle())
	}
	st := net.FlitStats()
	idle := net.IdleSkipped()

	switch {
	case !drained:
		return fmt.Errorf("did not drain within %d cycles", flitDrainBudget)
	case checkErr != nil:
		return checkErr
	case st.Injected != uint64(len(src)):
		return fmt.Errorf("engine counted %d injections, %d accepted", st.Injected, len(src))
	case st.Injected != st.Delivered+st.FailedWorms:
		return fmt.Errorf("injected %d != delivered %d + failed worms %d", st.Injected, st.Delivered, st.FailedWorms)
	case received != st.Delivered:
		return fmt.Errorf("received %d packets, engine delivered %d", received, st.Delivered)
	case st.Backpressure != backpressured:
		return fmt.Errorf("engine counted %d backpressured injections, saw %d", st.Backpressure, backpressured)
	}

	h.ints(st.Injected, st.Delivered, st.Dropped, st.CorruptSeen, st.Backpressure, st.Rejected, st.HWRetries,
		st.Kills, st.Retries, st.Cycles, st.FlitMoves, st.PadFlits, st.FailedWorms,
		st.LatencySum, st.LatencyMax, st.LatencyCount, offered)
	res.add("workload.arrivals", float64(offered))
	res.add("flitnet.inject_calls", float64(offered))
	res.add("flitnet.backpressure", float64(st.Backpressure))
	res.add("flitnet.cycles", float64(st.Cycles))
	res.add("flitnet.idle_skipped", float64(idle))
	res.add("flitnet.pad_flits", float64(st.PadFlits))
	res.add("flitnet.flit_moves", float64(st.FlitMoves))
	res.add("flitnet.delivered", float64(st.Delivered))
	res.add("flitnet.kills", float64(st.Kills))
	res.add("flitnet.retries", float64(st.Retries))
	res.add("flitnet.failed_worms", float64(st.FailedWorms))
	res.work += st.FlitMoves

	if p.observed {
		if err := p.observe(pt, tr, hub, sampler, h, res); err != nil {
			return err
		}
	}
	res.digest.ints(h.sum())
	return nil
}

// checkDelivery checks one received packet against what was accepted.
func checkDelivery(pkt network.Packet, node int, mode flitnet.Mode, src, dst []int32, seen []bool, last []int64, nodes int) error {
	if len(pkt.Data) != 1 {
		return fmt.Errorf("node %d received a %d-word payload, want 1", node, len(pkt.Data))
	}
	seq := int64(pkt.Data[0])
	switch {
	case seq < 0 || seq >= int64(len(src)):
		return fmt.Errorf("node %d received unknown packet %d", node, seq)
	case seen[seq]:
		return fmt.Errorf("packet %d received twice", seq)
	case int(src[seq]) != pkt.Src || int(dst[seq]) != node:
		return fmt.Errorf("packet %d (%d->%d) arrived at node %d from %d", seq, src[seq], dst[seq], node, pkt.Src)
	}
	seen[seq] = true
	if mode == flitnet.Adaptive {
		return nil // multipath: only the multiset is promised
	}
	flow := pkt.Src*nodes + node
	if seq < last[flow] {
		return fmt.Errorf("flow %d->%d delivered packet %d after %d", pkt.Src, node, seq, last[flow])
	}
	last[flow] = seq
	return nil
}

// observe runs the observability stack over one finished point: timeline
// reconciliation and snapshot, SLO replay with the canonical rules,
// critical-path reconciliation, analysis and rendering, and the timeline
// JSON and Prometheus exports.
func (p *flitPlan) observe(pt flitPoint, tr *tracer, hub *obs.Hub, sampler *timeline.Sampler, h *digest, res *passResult) error {
	if d := hub.Trace.Dropped(); d != 0 {
		return fmt.Errorf("tracer dropped %d events", d)
	}
	sp := tr.open("timeline.reconcile")
	err := sampler.Reconcile()
	tr.close(sp)
	if err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	sp = tr.open("timeline.snapshot")
	tl := sampler.Snapshot()
	tr.close(sp)

	sp = tr.open("monitor.replay")
	mon, err := monitor.New(p.rules)
	if err == nil {
		err = mon.Replay(tl)
	}
	var rep *monitor.Report
	if err == nil {
		rep = mon.Snapshot(pt.String())
	}
	tr.close(sp)
	if err != nil {
		return fmt.Errorf("monitor: %w", err)
	}

	sp = tr.open("critpath.reconcile")
	err = critpath.Reconcile(hub)
	tr.close(sp)
	if err != nil {
		return fmt.Errorf("critpath: %w", err)
	}
	sp = tr.open("critpath.analyze")
	an := critpath.Analyze(hub.Trace.Events())
	tr.close(sp)
	var cw countWriter
	sp = tr.open("critpath.render")
	err = critpath.WriteText(&cw, an)
	tr.close(sp)
	if err != nil {
		return err
	}

	tlBytes := cw.n
	sp = tr.open("timeline.export_json")
	err = timeline.WriteJSON(&cw, tl)
	tr.close(sp)
	if err != nil {
		return err
	}
	tlBytes = cw.n - tlBytes
	promBytes := cw.n
	sp = tr.open("obs.export_prometheus")
	err = hub.Metrics.WritePrometheus(&cw)
	tr.close(sp)
	if err != nil {
		return err
	}
	promBytes = cw.n - promBytes

	counters, levels, hists := hub.Metrics.SeriesCounts()
	h.ints(uint64(hub.Trace.Len()), tl.DigestValue, rep.DigestValue, uint64(len(rep.Incidents)),
		uint64(len(an.Messages)), uint64(an.Unattributed), uint64(an.TotalEvents),
		an.Quantile(0.5), an.Quantile(0.99), an.Critical.Span, uint64(len(an.Critical.Steps)))
	h.ints(an.ByCategory[:]...)
	h.ints(an.ByRole[:]...)
	h.ints(an.ByAxis[:]...)
	res.add("obs.trace_events", float64(hub.Trace.Len()))
	res.add("obs.trace_dropped", float64(hub.Trace.Dropped()))
	res.add("obs.series", float64(counters+levels+hists))
	res.add("timeline.windows", float64(len(tl.Windows)))
	res.add("timeline.export_json_bytes", float64(tlBytes))
	res.add("monitor.windows", float64(mon.Windows()))
	res.add("monitor.incidents", float64(len(rep.Incidents)))
	res.add("critpath.messages", float64(len(an.Messages)))
	res.add("obs.export_prometheus_bytes", float64(promBytes))
	return nil
}

// countWriter discards what it is given and counts the bytes.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
