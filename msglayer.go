// Package msglayer is a library-scale reproduction of Karamcheti & Chien,
// "Software Overhead in Messaging Layers: Where Does the Time Go?"
// (ASPLOS 1994).
//
// It provides:
//
//   - Simulated routing substrates with the paper's two contracts: a
//     CM-5-like network (arbitrary delivery order, finite buffering, fault
//     detection without correction) and a Compressionless-Routing-like
//     network (in-order, reliable, header rejection instead of buffer
//     preallocation), plus a flit-level wormhole simulator demonstrating
//     the mechanisms.
//   - A CMAM-style active messages layer and the paper's three protocols
//     (single-packet, finite-sequence, indefinite-sequence), instrumented
//     with the paper's instruction-count methodology: every protocol event
//     charges calibrated reg/mem/dev instruction bundles attributed to
//     base cost, buffer management, in-order delivery, or fault tolerance.
//   - The analytic cost model generalizing the measurements over packet
//     size and count (the paper's Figure 8), and experiment drivers that
//     regenerate every table and figure.
//   - A runtime observability layer: a metrics registry (counters, gauges,
//     fixed-bucket histograms keyed by node and protocol), a structured
//     event tracer with simulated-time timestamps, and exporters to
//     Prometheus text, JSON, and the Chrome trace-event format with every
//     event attributed to the paper's Feature axes. Attach it with
//     Machine.AttachObserver; it is nil-safe and costs nothing when
//     detached.
//
// Quick start:
//
//	m, err := msglayer.NewCM5Machine(msglayer.CM5Options{Nodes: 2})
//	ep0 := msglayer.NewEndpoint(m.Node(0))
//	ep1 := msglayer.NewEndpoint(m.Node(1))
//	ep1.Register(1, func(src int, args []msglayer.Word) { ... })
//	ep0.AM4(1, 1, 10, 20, 30, 40)
//	ep1.PollSingle()
//	fmt.Println(msglayer.RenderTable1(m.TotalGauge()))
//
// See examples/ for complete programs and internal/experiments for the
// paper reproduction harness.
package msglayer

import (
	"msglayer/internal/analytic"
	"msglayer/internal/cmam"
	"msglayer/internal/collectives"
	"msglayer/internal/cost"
	"msglayer/internal/crmsg"
	"msglayer/internal/ctrlnet"
	"msglayer/internal/flitnet"
	"msglayer/internal/machine"
	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/protocols"
	"msglayer/internal/report"
	"msglayer/internal/reqreply"
	"msglayer/internal/topology"
	"msglayer/internal/trace"
)

// Core data types.
type (
	// Word is a 32-bit network word.
	Word = network.Word
	// Packet is one hardware packet.
	Packet = network.Packet
	// Gauge accumulates dynamic instruction counts.
	Gauge = cost.Gauge
	// Vec is an instruction count split into reg/mem/dev.
	Vec = cost.Vec
	// Schedule is the per-event instruction-charge calibration table.
	Schedule = cost.Schedule
	// Model assigns per-category cycle weights.
	Model = cost.Model
	// Machine is a set of simulated nodes sharing a network.
	Machine = machine.Machine
	// Node is one simulated processing node.
	Node = machine.Node
	// Stepper is a unit of protocol work driven by Run.
	Stepper = machine.Stepper
	// StepFunc adapts a function to Stepper.
	StepFunc = machine.StepFunc
	// Endpoint is a node's active-messages (CMAM) layer.
	Endpoint = cmam.Endpoint
	// HandlerID names a registered active-message handler.
	HandlerID = cmam.HandlerID
	// Handler is an active-message handler.
	Handler = cmam.Handler
	// Finite is the finite-sequence protocol service (CMAM substrate).
	Finite = protocols.Finite
	// FiniteTransfer is one outgoing finite-sequence transfer.
	FiniteTransfer = protocols.FiniteTransfer
	// Stream is the indefinite-sequence protocol service (CMAM substrate).
	Stream = protocols.Stream
	// StreamConfig tunes the indefinite-sequence protocol.
	StreamConfig = protocols.StreamConfig
	// Conn is an ordered channel of a Stream.
	Conn = protocols.Conn
	// CRFinite is the finite-sequence service on the CR substrate.
	CRFinite = crmsg.Finite
	// CRFiniteConfig tunes a CRFinite service.
	CRFiniteConfig = crmsg.FiniteConfig
	// CRStream is the indefinite-sequence service on the CR substrate.
	CRStream = crmsg.Stream
	// CRStreamConfig tunes a CRStream service.
	CRStreamConfig = crmsg.StreamConfig
	// Cells is a role-by-feature cost breakdown.
	Cells = report.Cells
	// Breakdown is the analytic model's role-by-feature table.
	Breakdown = analytic.Breakdown
	// Trace is an ordered protocol event log (Figures 3/4/5/7).
	Trace = trace.Trace
)

// Accounting enums, re-exported.
const (
	Reg = cost.Reg
	Mem = cost.Mem
	Dev = cost.Dev

	Base       = cost.Base
	BufferMgmt = cost.BufferMgmt
	InOrder    = cost.InOrder
	FaultTol   = cost.FaultTol

	RoleSource      = cost.Source
	RoleDestination = cost.Destination
)

// Cycle-cost models from Appendix A.
var (
	UnitModel = cost.Unit
	CM5Model  = cost.CM5
)

// CM5Options configures a CM-5-substrate machine.
type CM5Options struct {
	// Nodes is the number of processing nodes (required).
	Nodes int
	// PacketWords is the hardware packet payload; defaults to 4, must be
	// even (Figure 8 sweeps 4-128).
	PacketWords int
	// HalfOutOfOrder applies the paper's Table 2 delivery-order
	// assumption: within each flow, every adjacent pair of packets is
	// delivered swapped.
	HalfOutOfOrder bool
	// Faults optionally injects packet corruption/loss; see
	// NewEveryNthDropPlan and friends.
	Faults FaultPlan
	// Capacity bounds per-destination buffering (0 = unbounded).
	Capacity int
}

// FaultPlan decides packet fates; see the fault constructors below.
type FaultPlan = network.FaultPlan

// NewEveryNthDropPlan drops every nth packet.
func NewEveryNthDropPlan(n int) FaultPlan {
	return &network.EveryNth{N: n, What: network.Drop}
}

// NewEveryNthCorruptPlan corrupts every nth packet (detected and discarded
// by the receiving NI).
func NewEveryNthCorruptPlan(n int) FaultPlan {
	return &network.EveryNth{N: n, What: network.Corrupt}
}

// NewSeededFaultPlan corrupts/drops packets at a probability, seeded for
// repeatability.
func NewSeededFaultPlan(rate float64, seed int64) FaultPlan {
	return network.NewSeededRate(rate, seed)
}

// NewCM5Machine builds a machine over the CM-5-like behavioral substrate
// with the paper's calibration schedule.
func NewCM5Machine(opts CM5Options) (*Machine, error) {
	if opts.PacketWords == 0 {
		opts.PacketWords = 4
	}
	var reorder network.ReorderPolicy
	if opts.HalfOutOfOrder {
		reorder = network.PairSwap()
	}
	net, err := network.NewCM5Net(network.CM5Config{
		Nodes:       opts.Nodes,
		PacketWords: opts.PacketWords,
		Reorder:     reorder,
		Faults:      opts.Faults,
		Capacity:    opts.Capacity,
	})
	if err != nil {
		return nil, err
	}
	sched, err := cost.NewPaperSchedule(opts.PacketWords)
	if err != nil {
		return nil, err
	}
	return machine.New(net, sched)
}

// CROptions configures a Compressionless-Routing-substrate machine.
type CROptions struct {
	// Nodes is the number of processing nodes (required).
	Nodes int
	// PacketWords is the hardware packet payload; defaults to 4.
	PacketWords int
	// Capacity bounds per-destination buffering (0 = unbounded).
	Capacity int
}

// CRMachine bundles a CR machine with its substrate (needed to build CR
// protocol services, which install acceptance checks on it).
type CRMachine struct {
	*Machine
	Substrate *network.CRNet
}

// NewCRMachine builds a machine over the CR-like behavioral substrate.
func NewCRMachine(opts CROptions) (*CRMachine, error) {
	net, err := network.NewCRNet(network.CRConfig{
		Nodes:       opts.Nodes,
		PacketWords: opts.PacketWords,
		Capacity:    opts.Capacity,
	})
	if err != nil {
		return nil, err
	}
	pw := opts.PacketWords
	if pw == 0 {
		pw = 4
	}
	sched, err := cost.NewPaperSchedule(pw)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(net, sched)
	if err != nil {
		return nil, err
	}
	return &CRMachine{Machine: m, Substrate: net}, nil
}

// NewEndpoint attaches an active-messages layer to a node.
func NewEndpoint(n *Node) *Endpoint { return cmam.NewEndpoint(n) }

// NewFinite installs the finite-sequence protocol (Figure 3) on an
// endpoint over the CM-5 substrate.
func NewFinite(ep *Endpoint) *Finite { return protocols.NewFinite(ep) }

// NewStream installs the indefinite-sequence protocol (Figure 4) on an
// endpoint over the CM-5 substrate.
func NewStream(ep *Endpoint, cfg StreamConfig) (*Stream, error) {
	return protocols.NewStream(ep, cfg)
}

// NewCRFinite installs the finite-sequence protocol (Figure 5) on an
// endpoint over a CR machine.
func NewCRFinite(ep *Endpoint, m *CRMachine, cfg CRFiniteConfig) (*CRFinite, error) {
	return crmsg.NewFinite(ep, m.Substrate, cfg)
}

// NewCRStream installs the indefinite-sequence protocol (Figure 7) on an
// endpoint over a CR machine.
func NewCRStream(ep *Endpoint, cfg CRStreamConfig) (*CRStream, error) {
	return crmsg.NewStream(ep, cfg)
}

// Run drives steppers round-robin until all are done; see machine.Run.
func Run(maxRounds int, steppers ...Stepper) error {
	return machine.Run(maxRounds, steppers...)
}

// NewPaperSchedule returns the paper-calibrated charge schedule for
// packets of n data words. The schedule is one shared, read-only value per
// packet size; edit a Clone of it instead.
func NewPaperSchedule(n int) (*Schedule, error) { return cost.NewPaperSchedule(n) }

// Rendering helpers in the paper's table layouts.
func RenderTable1(g *Gauge) string                 { return report.Table1(g) }
func RenderFeatureTable(t string, c Cells) string  { return report.FeatureTable(t, c) }
func RenderCategoryTable(t string, c Cells) string { return report.CategoryTable(t, c) }

// BreakdownOf extracts a role-by-feature breakdown from a gauge.
func BreakdownOf(g *Gauge) Cells { return report.FromGauge(g) }

// MergeRoles combines a source node's gauge and a destination node's gauge
// into one two-column breakdown.
func MergeRoles(src, dst *Gauge) Cells { return report.MergeRoles(src, dst) }

// Protocol traces (Figures 3, 4, 5, 7).
func TraceFigure3(words int) (Trace, error)   { return trace.Figure3(words) }
func TraceFigure4(packets int) (Trace, error) { return trace.Figure4(packets) }
func TraceFigure5(words int) (Trace, error)   { return trace.Figure5(words) }
func TraceFigure7(packets int) (Trace, error) { return trace.Figure7(packets) }

// Flit-level network simulation (mechanism demonstrations).
type (
	// FlitNet is the flit-level wormhole network simulator.
	FlitNet = flitnet.Net
	// FlitConfig assembles a FlitNet.
	FlitConfig = flitnet.Config
	// Topology describes routers and routes for a FlitNet.
	Topology = topology.Topology
)

// Flit-network routing modes.
const (
	RouteDeterministic = flitnet.Deterministic
	RouteAdaptive      = flitnet.Adaptive
	RouteCR            = flitnet.CR
)

// NewFatTree builds a k-ary n-tree (CM-5-style fat tree).
func NewFatTree(k, n int) (Topology, error) { return topology.NewFatTree(k, n) }

// NewMesh builds a 2-D mesh (the canonical CR substrate).
func NewMesh(w, h int) (Topology, error) { return topology.NewMesh(w, h) }

// NewFlitNet builds a flit-level network.
func NewFlitNet(cfg FlitConfig) (*FlitNet, error) { return flitnet.New(cfg) }

// Control-network (hardware combining tree) types.
type (
	// ControlNet is a CM-5-style control network: a combining tree that
	// performs reductions and barriers in hardware.
	ControlNet = ctrlnet.Net
	// CombineOp is a control-network combining operation.
	CombineOp = ctrlnet.Op
)

// Control-network combining operations.
const (
	CombineSum = ctrlnet.OpSum
	CombineMax = ctrlnet.OpMax
	CombineAnd = ctrlnet.OpAnd
	CombineOr  = ctrlnet.OpOr
	CombineXor = ctrlnet.OpXor
)

// NewControlNet builds a hardware combining tree over the given node count
// with the given tree fanout (the CM-5 used 4). Attach it to communicators
// with Comm.AttachControlNetwork.
func NewControlNet(nodes, fanout int) (*ControlNet, error) {
	return ctrlnet.New(nodes, fanout)
}

// Higher-level communication services built on the messaging layers.
type (
	// Comm is a node's participation in an MPI-style communicator
	// providing barrier, all-reduce, broadcast, scatter, and gather.
	Comm = collectives.Comm
	// ReduceOp is a reduction operator for Comm.ReduceBegin.
	ReduceOp = collectives.Op
	// RPC is a deadlock-safe request/reply service on active messages.
	RPC = reqreply.Service
	// RPCCall is one outstanding RPC request.
	RPCCall = reqreply.Call
	// RPCServer computes a reply payload from a request payload.
	RPCServer = reqreply.Server
)

// Reduction operators.
var (
	ReduceSum = collectives.Sum
	ReduceMax = collectives.Max
)

// NewComm attaches a communicator to a node's endpoint. Every node of the
// machine needs one before collectives start.
func NewComm(ep *Endpoint, machineSize int) (*Comm, error) {
	return collectives.New(ep, machineSize)
}

// NewRPC installs a request/reply service; serve may be nil on client-only
// nodes. On dual-network machines (NewDualCM5Machine) replies travel on
// the second network, making round-trip protocols deadlock-safe under full
// request buffers (the paper's footnote 6).
func NewRPC(ep *Endpoint, serve RPCServer) *RPC { return reqreply.New(ep, serve) }

// NewDualCM5Machine builds a machine with two independent CM-5-like data
// networks — requests on one, replies on the other, as on the real CM-5.
func NewDualCM5Machine(opts CM5Options) (*Machine, error) {
	if opts.PacketWords == 0 {
		opts.PacketWords = 4
	}
	mk := func() (network.Network, error) {
		var reorder network.ReorderPolicy
		if opts.HalfOutOfOrder {
			reorder = network.PairSwap()
		}
		return network.NewCM5Net(network.CM5Config{
			Nodes:       opts.Nodes,
			PacketWords: opts.PacketWords,
			Reorder:     reorder,
			Faults:      opts.Faults,
			Capacity:    opts.Capacity,
		})
	}
	req, err := mk()
	if err != nil {
		return nil, err
	}
	rep, err := mk()
	if err != nil {
		return nil, err
	}
	sched, err := cost.NewPaperSchedule(opts.PacketWords)
	if err != nil {
		return nil, err
	}
	return machine.NewDual(req, rep, sched)
}

// Runtime observability, re-exported. Build a hub, attach it to a machine
// with Machine.AttachObserver, drive the run with Machine.Run (the method,
// which ticks the hub's simulated clock), then export what it saw.
type (
	// ObsHub bundles a metrics registry and an event tracer.
	ObsHub = obs.Hub
	// ObsKey identifies one metric series (name + node/proto/event labels).
	ObsKey = obs.Key
	// ObsRegistry holds metric series; export with WritePrometheus or
	// MetricsJSON.
	ObsRegistry = obs.Registry
	// ObsCounter is a monotonically increasing series.
	ObsCounter = obs.Counter
	// ObsLevel is a gauge-style series (named Level to avoid colliding with
	// the instruction-count Gauge).
	ObsLevel = obs.Level
	// ObsHistogram is a fixed-bucket histogram series.
	ObsHistogram = obs.Histogram
	// ObsTracer records structured events in a compact chunked store;
	// export with WriteChromeTrace. Its Events method materializes the
	// stream as a fresh []ObsTraceEvent snapshot that later Records and
	// Resets leave unchanged.
	ObsTracer = obs.Tracer
	// ObsTraceEvent is one recorded event with simulated-time timestamps.
	ObsTraceEvent = obs.TraceEvent
	// ObsAxis is the paper Feature axis an event is attributed to.
	ObsAxis = obs.Axis
)

// Feature-axis values for trace-event attribution.
const (
	ObsAxisOther      = obs.AxisOther
	ObsAxisBase       = obs.AxisBase
	ObsAxisBufferMgmt = obs.AxisBufferMgmt
	ObsAxisInOrder    = obs.AxisInOrder
	ObsAxisFaultTol   = obs.AxisFaultTol
)

// NewObsHub builds an enabled observability hub.
func NewObsHub() *ObsHub { return obs.NewHub() }

// Analytic cost model (Figure 8), re-exported.
type (
	// ModelParams parameterize the analytic cost model.
	ModelParams = analytic.Params
	// ModelProtocol selects a protocol for the analytic model.
	ModelProtocol = analytic.Protocol
	// SweepPoint is one point of an overhead-vs-packet-size sweep.
	SweepPoint = analytic.SweepPoint
)

// Analytic model protocols.
const (
	ModelFiniteCMAM     = analytic.ProtoFiniteCMAM
	ModelIndefiniteCMAM = analytic.ProtoIndefiniteCMAM
	ModelFiniteCR       = analytic.ProtoFiniteCR
	ModelIndefiniteCR   = analytic.ProtoIndefiniteCR
)

// EvaluateModel computes a protocol's closed-form cost breakdown under a
// schedule — the paper's Figure 8 generalization.
func EvaluateModel(proto ModelProtocol, s *Schedule, prm ModelParams) (Breakdown, error) {
	return analytic.Evaluate(proto, s, prm)
}

// OverheadSweep reproduces Figure 8 (right): overhead fraction for a fixed
// message size across hardware packet sizes.
func OverheadSweep(proto ModelProtocol, messageWords int, packetSizes []int) ([]SweepPoint, error) {
	return analytic.OverheadSweep(proto, messageWords, packetSizes)
}

// CrossoverWords finds the message size where protocol a becomes at least
// as cheap as protocol b (see the crossover ablation).
func CrossoverWords(a, b ModelProtocol, s *Schedule, maxWords int) (int, bool) {
	return analytic.CrossoverWords(a, b, s, maxWords)
}
