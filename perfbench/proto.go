package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"msglayer/internal/analytic"
	"msglayer/internal/cmam"
	"msglayer/internal/cost"
	"msglayer/internal/crmsg"
	"msglayer/internal/machine"
	"msglayer/internal/network"
	"msglayer/internal/protocols"
)

// proto-mix settings. The fault settings are TestTortureMixedTraffic's
// drop/corrupt rate and reorder window: a 2% seeded fault rate split evenly
// between drops and corruption, a 5-packet shuffle window, NACKs after 4
// buffered gaps and retransmission after 128 idle pumps. Buffering toward
// the destination is left unbounded: with the torture test's 64-packet
// bound, finite transfers of more than 64 packets can stall for good (see
// README.md, "Known limits").
const (
	protoStrata     = 1667 // transfers per (protocol, packet size) per pass
	protoMaxWords   = 1024
	protoMaxRounds  = 1_000_000 // as the experiments package uses
	faultyEvery     = 4         // one CMAM transfer in 4 runs over the faulty substrate
	faultRate       = 0.02
	faultWindow     = 5
	faultRetransmit = 128
	faultNack       = 4
)

var packetSizes = []int{4, 8, 16}

// xfer is one planned transfer from node 0 to node 1.
type xfer struct {
	proto  analytic.Protocol
	words  int
	pkt    int
	faulty bool
	seed   int64 // fault and reorder seed, faulty transfers only
}

func (x xfer) cr() bool {
	return x.proto == analytic.ProtoFiniteCR || x.proto == analytic.ProtoIndefiniteCR
}

func (x xfer) String() string {
	s := fmt.Sprintf("%s/%dw/%dp", x.proto, x.words, x.pkt)
	if x.faulty {
		s += fmt.Sprintf("/faulty(seed %d)", x.seed)
	}
	return s
}

// cells is a transfer's instruction counts: the source node's Source
// column and the destination node's Destination column, as
// report.MergeRoles assembles them.
type cells [2][cost.NumFeatures]cost.Vec

type cellKey struct {
	proto      analytic.Protocol
	words, pkt int
}

// protoPlan is proto-mix's inputs: the seeded transfer list, a payload
// long enough for the largest transfer, and the analytic model's cells
// for every fault-free (protocol, words, packet size) in the list.
type protoPlan struct {
	xfers   []xfer
	payload []network.Word
	want    map[cellKey]cells
}

// newProtoPlan draws the transfer list. Every (protocol, packet size)
// pair gets protoStrata transfers whose sizes are stratified log-uniform
// over 1..protoMaxWords: one seeded draw from each of protoStrata equal
// slices of the log scale, so every seed moves nearly the same volume and
// the seed changes the sizes, the order and the faults, not the amount of
// work. One CMAM transfer in faultyEvery, spread over the strata, runs
// over the faulty substrate.
func newProtoPlan(seed int64) (*protoPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &protoPlan{want: map[cellKey]cells{}}
	protos := []analytic.Protocol{
		analytic.ProtoFiniteCMAM, analytic.ProtoIndefiniteCMAM,
		analytic.ProtoFiniteCR, analytic.ProtoIndefiniteCR,
	}
	for _, proto := range protos {
		for _, pkt := range packetSizes {
			phase := rng.Intn(faultyEvery)
			for k := 0; k < protoStrata; k++ {
				u := (float64(k) + rng.Float64()) / protoStrata
				words := int(math.Exp(u * math.Log(protoMaxWords+1)))
				x := xfer{proto: proto, pkt: pkt, words: max(1, min(words, protoMaxWords))}
				if !x.cr() && k%faultyEvery == phase {
					x.faulty, x.seed = true, rng.Int63()
				}
				p.xfers = append(p.xfers, x)
			}
		}
	}
	rng.Shuffle(len(p.xfers), func(i, j int) { p.xfers[i], p.xfers[j] = p.xfers[j], p.xfers[i] })
	for _, x := range p.xfers {
		k := cellKey{x.proto, x.words, x.pkt}
		if _, ok := p.want[k]; ok || x.faulty {
			continue
		}
		want, err := analyticCells(x)
		if err != nil {
			return nil, err
		}
		p.want[k] = want
	}
	p.payload = make([]network.Word, protoMaxWords)
	for i := range p.payload {
		p.payload[i] = payloadWord(i)
	}
	return p, nil
}

// payloadWord is the i'th word of every transfer's payload: distinct, so a
// duplicated, lost or reordered word shows.
func payloadWord(i int) network.Word { return network.Word(i*3 + 1) }

// analyticCells evaluates the closed form under the conditions the
// fault-free substrates impose: the indefinite CMAM protocol runs over a
// pair-swapping network (half the packets out of order), acknowledgement
// group 1.
func analyticCells(x xfer) (cells, error) {
	s, err := cost.NewPaperSchedule(x.pkt)
	if err != nil {
		return cells{}, err
	}
	prm := analytic.Params{MessageWords: x.words, AckGroup: 1}
	if x.proto == analytic.ProtoIndefiniteCMAM {
		prm.OutOfOrder = analytic.HalfOutOfOrder(s, x.words)
	}
	b, err := analytic.Evaluate(x.proto, s, prm)
	if err != nil {
		return cells{}, err
	}
	var c cells
	for r, role := range []cost.Role{cost.Source, cost.Destination} {
		for _, f := range cost.Features() {
			c[r][f] = b[role][f]
		}
	}
	return c, nil
}

func (p *protoPlan) pass(tr *tracer, res *passResult) {
	for i, x := range p.xfers {
		tr.setOp(i)
		op := tr.open("bench.transfer")
		t0 := time.Now()
		err := p.transfer(x, tr, res)
		res.opDone(t0)
		tr.close(op)
		res.ops++
		if err != nil {
			res.fail(fmt.Errorf("transfer %d %s: %w", i, x, err))
		}
	}
	tr.setOp(-1)
}

// pumper is a protocol service the machine's rounds drive.
type pumper interface{ Pump() error }

// endpoints is a transfer's two-node machine with one service per node.
type endpoints struct {
	net      network.Network
	m        *machine.Machine
	src, dst pumper
	start    func() error // begins the transfer at the source
	done     func() bool  // the transfer has completed at both ends
	got      func() ([]network.Word, int)
}

// transfer builds a fresh two-node machine, runs one transfer to
// completion, and checks it: the payload arrives byte-exact, exactly once
// and in order, and a fault-free transfer's instruction cells equal the
// analytic closed form.
func (p *protoPlan) transfer(x xfer, tr *tracer, res *passResult) error {
	sp := tr.open("machine.new")
	e, err := p.build(x, tr)
	tr.close(sp)
	if err != nil {
		return err
	}

	layer := "protocols"
	if x.cr() {
		layer = "crmsg"
	}
	sp = tr.open(layer + ".start")
	err = e.start()
	tr.close(sp)
	if err != nil {
		return err
	}

	run := tr.open("machine.run")
	pumps := tr.agg(layer + ".pump")
	rounds := 0
	step := func(svc pumper, count bool) machine.Stepper {
		// Completion is sampled before the pump, as the experiments
		// package does, so the round count and the charges match theirs.
		return machine.StepFunc(func() (bool, error) {
			if count {
				rounds++
			}
			d := e.done()
			t0 := tr.begin()
			err := svc.Pump()
			tr.add(pumps, t0)
			return d, err
		})
	}
	err = e.m.Run(protoMaxRounds, step(e.src, true), step(e.dst, false))
	tr.close(run)
	if err != nil {
		return err
	}

	sp = tr.open("cost.read")
	var got cells
	for f := range got[0] {
		got[0][f] = e.m.Node(0).Gauge.Cell(cost.Source, cost.Feature(f))
		got[1][f] = e.m.Node(1).Gauge.Cell(cost.Destination, cost.Feature(f))
	}
	st := e.net.Stats()
	tr.close(sp)

	data, deliveries := e.got()
	if err := checkPayload(x, data, deliveries); err != nil {
		return err
	}
	if !x.faulty {
		if want := p.want[cellKey{x.proto, x.words, x.pkt}]; got != want {
			return fmt.Errorf("instruction cells %v differ from the analytic model's %v", got, want)
		}
	}

	var total, base uint64
	for r := range got {
		for f, v := range got[r] {
			total += v.Total()
			res.add(featureMetric[f], float64(v.Total()))
			if cost.Feature(f) == cost.Base {
				base += v.Total()
			}
			res.digest.ints(v.Reg, v.Mem, v.Dev)
		}
	}
	res.digest.ints(uint64(x.proto), uint64(x.words), uint64(x.pkt), uint64(rounds),
		st.Injected, st.Delivered, st.Dropped, st.CorruptSeen, st.Backpressure, st.Rejected, st.HWRetries)
	res.work += total
	res.add("cost.instr_total", float64(total))
	res.add("machine.rounds", float64(rounds))
	res.add("network.injected", float64(st.Injected))
	res.add("network.dropped", float64(st.Dropped))
	res.add("network.corrupt", float64(st.CorruptSeen))
	return nil
}

var featureMetric = [cost.NumFeatures]string{
	cost.Base:       "cost.instr_base",
	cost.BufferMgmt: "cost.instr_buffer",
	cost.InOrder:    "cost.instr_inorder",
	cost.FaultTol:   "cost.instr_fault",
}

// checkPayload requires the received words to be the sent payload, whole
// and in order, delivered once (finite) or as exactly the sent packets
// (streams).
func checkPayload(x xfer, data []network.Word, deliveries int) error {
	finite := x.proto == analytic.ProtoFiniteCMAM || x.proto == analytic.ProtoFiniteCR
	if finite && deliveries != 1 {
		return fmt.Errorf("received %d times, want once", deliveries)
	}
	if want := (x.words + x.pkt - 1) / x.pkt; !finite && deliveries != want {
		return fmt.Errorf("delivered %d packets, want %d", deliveries, want)
	}
	if len(data) != x.words {
		return fmt.Errorf("received %d of %d words", len(data), x.words)
	}
	for i, w := range data {
		if w != payloadWord(i) {
			return fmt.Errorf("word %d is %d, want %d", i, w, payloadWord(i))
		}
	}
	return nil
}

// build assembles the substrate, schedule, machine, endpoints and
// services for one transfer, as experiments.RunProtocol does.
func (p *protoPlan) build(x xfer, tr *tracer) (*endpoints, error) {
	sp := tr.open("network.new")
	var net network.Network
	var crNet *network.CRNet
	var err error
	switch {
	case x.cr():
		crNet, err = network.NewCRNet(network.CRConfig{Nodes: 2, PacketWords: x.pkt})
		net = crNet
	case x.faulty:
		net, err = network.NewCM5Net(network.CM5Config{
			Nodes:       2,
			PacketWords: x.pkt,
			Reorder:     network.WindowShuffle(faultWindow, x.seed),
			Faults:      network.NewSeededRate(faultRate, x.seed+1),
		})
	case x.proto == analytic.ProtoIndefiniteCMAM:
		net, err = network.NewCM5Net(network.CM5Config{Nodes: 2, PacketWords: x.pkt, Reorder: network.PairSwap()})
	default:
		net, err = network.NewCM5Net(network.CM5Config{Nodes: 2, PacketWords: x.pkt})
	}
	tr.close(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.open("cost.schedule")
	sched, err := cost.NewPaperSchedule(x.pkt)
	tr.close(sp)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(net, sched)
	if err != nil {
		return nil, err
	}
	m.Node(0).SetRole(cost.Source)
	m.Node(1).SetRole(cost.Destination)

	sp = tr.open("cmam.endpoint")
	ep0, ep1 := cmam.NewEndpoint(m.Node(0)), cmam.NewEndpoint(m.Node(1))
	tr.close(sp)

	e := &endpoints{net: net, m: m}
	data := p.payload[:x.words]
	var got []network.Word
	deliveries := 0
	e.got = func() ([]network.Word, int) { return got, deliveries }
	receive := func(_ int, buf []network.Word) { got, deliveries = buf, deliveries+1 }
	deliver := func(_ int, _ uint8, buf []network.Word) { got, deliveries = append(got, buf...), deliveries+1 }
	// sendAll queues the payload on a stream connection, one packet per
	// Send, as the experiments package's stream runs do.
	sendAll := func(send func(...network.Word) error) error {
		for off := 0; off < x.words; off += x.pkt {
			if err := send(data[off:min(off+x.pkt, x.words)]...); err != nil {
				return err
			}
		}
		return nil
	}

	switch x.proto {
	case analytic.ProtoFiniteCMAM:
		sp = tr.open("protocols.new")
		src, dst := protocols.NewFinite(ep0), protocols.NewFinite(ep1)
		tr.close(sp)
		if x.faulty {
			src.RetransmitAfter, dst.RetransmitAfter = faultRetransmit, faultRetransmit
		}
		dst.OnReceive = receive
		var t *protocols.FiniteTransfer
		e.src, e.dst = src, dst
		e.start = func() (err error) { t, err = src.Start(1, data); return err }
		e.done = func() bool { return t.Done() }
	case analytic.ProtoIndefiniteCMAM:
		cfg := protocols.StreamConfig{AckGroup: 1}
		if x.faulty {
			cfg.NackThreshold, cfg.RetransmitAfter = faultNack, faultRetransmit
		}
		sp = tr.open("protocols.new")
		src, err := protocols.NewStream(ep0, cfg)
		var dst *protocols.Stream
		if err == nil {
			cfg.OnDeliver = deliver
			dst, err = protocols.NewStream(ep1, cfg)
		}
		tr.close(sp)
		if err != nil {
			return nil, err
		}
		var conn *protocols.Conn
		e.src, e.dst = src, dst
		e.start = func() error { conn = src.Open(1, 0); return sendAll(conn.Send) }
		e.done = func() bool { return conn.Idle() }
	case analytic.ProtoFiniteCR:
		sp = tr.open("crmsg.new")
		src, err := crmsg.NewFinite(ep0, crNet, crmsg.FiniteConfig{})
		var dst *crmsg.Finite
		if err == nil {
			dst, err = crmsg.NewFinite(ep1, crNet, crmsg.FiniteConfig{OnReceive: receive})
		}
		tr.close(sp)
		if err != nil {
			return nil, err
		}
		var t *crmsg.Transfer
		e.src, e.dst = src, dst
		e.start = func() (err error) { t, err = src.Start(1, data); return err }
		e.done = func() bool { return t.Done() && deliveries > 0 }
	case analytic.ProtoIndefiniteCR:
		sp = tr.open("crmsg.new")
		src, err := crmsg.NewStream(ep0, crmsg.StreamConfig{})
		var dst *crmsg.Stream
		if err == nil {
			dst, err = crmsg.NewStream(ep1, crmsg.StreamConfig{OnDeliver: deliver})
		}
		tr.close(sp)
		if err != nil {
			return nil, err
		}
		var conn *crmsg.Conn
		e.src, e.dst = src, dst
		e.start = func() error { conn = src.Open(1, 0); return sendAll(conn.Send) }
		e.done = func() bool { return conn.Idle() && len(got) == x.words }
	default:
		return nil, errors.New("unknown protocol")
	}
	return e, nil
}
