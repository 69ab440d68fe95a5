// Package machine assembles processing nodes — each an instruction-cost
// gauge, a calibration schedule, and a network interface — around a shared
// network substrate, and provides a deterministic round-robin scheduler for
// running messaging protocols to completion.
package machine

import (
	"errors"
	"fmt"

	"msglayer/internal/cost"
	"msglayer/internal/network"
	"msglayer/internal/ni"
	"msglayer/internal/obs"
)

// Node is one processing node of the simulated parallel machine.
type Node struct {
	// ID is the node number, 0-based.
	ID int
	// Gauge accumulates the node's dynamic instruction counts.
	Gauge *cost.Gauge
	// Sched is the calibration schedule the node's messaging layer
	// charges against.
	Sched *cost.Schedule
	// NI is the node's memory-mapped network interface.
	NI *ni.NI
	// ReplyNI, when non-nil, is a second interface onto a separate
	// network. The CM-5 provides two identical data networks; CMAM sends
	// requests on one and replies on the other, which makes round-trip
	// protocols deadlock-safe without software buffer reservation (the
	// paper's footnote 6). Built by NewDual.
	ReplyNI *ni.NI
	// EventListener, when set, observes every named protocol event in
	// emission order (the trace package uses this to reconstruct the
	// paper's protocol step diagrams).
	EventListener func(name string)
	// Obs, when non-nil, is the node's observability scope; every named
	// protocol event and the CMAM packet/segment hooks record through it.
	// Nil (the default) keeps the packet path free of observability cost.
	Obs *obs.NodeScope

	role cost.Role
}

// Role returns the node's current accounting role: whether its instruction
// charges count toward the Source or Destination column of the tables.
func (n *Node) Role() cost.Role { return n.role }

// SetRole sets the node's accounting role. A node that both sends and
// receives in one experiment (for example when acknowledging) keeps a single
// role — the paper attributes acknowledgement sends to the destination node
// and acknowledgement receptions to the source node, which is exactly the
// role each node holds for the transfer being accounted.
func (n *Node) SetRole(r cost.Role) { n.role = r }

// Charge records a calibrated bundle against the node's role and a feature.
func (n *Node) Charge(f cost.Feature, items cost.Items) {
	n.Gauge.Charge(n.role, f, items)
}

// Event records a named protocol event on the node's gauge and notifies the
// listener and observability scope, if any.
func (n *Node) Event(name string) {
	n.Gauge.CountEvent(name)
	if n.EventListener != nil {
		n.EventListener(name)
	}
	n.Obs.Event(name)
}

// HandleBegin enters the destination-handler context for a received packet
// carrying the given observability identity: until the matching HandleEnd,
// everything the handler records — including acknowledgements and replies
// it sends — is attributed to the packet's message, and a dispatch span
// linked to the sender's span marks the handler's execution. With no
// observer attached both calls are no-ops.
func (n *Node) HandleBegin(msg, link, pkt uint64) obs.DispatchCtx {
	return n.Obs.BeginDispatch("cmam.dispatch", msg, link, pkt)
}

// HandleEnd closes the dispatch begun by HandleBegin, restoring the node's
// previous message context.
func (n *Node) HandleEnd(ctx obs.DispatchCtx) {
	n.Obs.EndDispatch(ctx)
}

// Machine is a set of nodes sharing one network substrate.
type Machine struct {
	Net   network.Network
	Nodes []*Node

	hub *obs.Hub
}

// New builds a machine with one node per network endpoint. All nodes share
// the schedule; each gets its own gauge and NI.
func New(net network.Network, sched *cost.Schedule) (*Machine, error) {
	if net == nil || sched == nil {
		return nil, errors.New("machine: nil network or schedule")
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	if sched.PacketWords != net.PacketWords() {
		return nil, fmt.Errorf("machine: schedule packet size %d != network packet size %d",
			sched.PacketWords, net.PacketWords())
	}
	// The nodes, their gauges and their NIs are allocated together, a few
	// arrays for the whole machine.
	count := net.Nodes()
	nodes := make([]Node, count)
	gauges := cost.NewGauges(count)
	nics := ni.NewSet(net)
	m := &Machine{Net: net, Nodes: make([]*Node, count)}
	for id := range nodes {
		nodes[id] = Node{ID: id, Gauge: &gauges[id], Sched: sched, NI: &nics[id]}
		m.Nodes[id] = &nodes[id]
	}
	return m, nil
}

// MustNew is New that panics on bad configuration.
func MustNew(net network.Network, sched *cost.Schedule) *Machine {
	m, err := New(net, sched)
	if err != nil {
		panic(err)
	}
	return m
}

// NewDual builds a machine whose nodes have two network interfaces: the
// primary (request) network and a separate reply network, modeling the
// CM-5's two data networks. Both networks must have the same node count
// and packet size.
func NewDual(request, reply network.Network, sched *cost.Schedule) (*Machine, error) {
	if reply == nil {
		return nil, errors.New("machine: nil reply network")
	}
	m, err := New(request, sched)
	if err != nil {
		return nil, err
	}
	if reply.Nodes() != request.Nodes() {
		return nil, fmt.Errorf("machine: reply network has %d nodes, request has %d",
			reply.Nodes(), request.Nodes())
	}
	if reply.PacketWords() != request.PacketWords() {
		return nil, fmt.Errorf("machine: reply network packet size %d != request %d",
			reply.PacketWords(), request.PacketWords())
	}
	for id, n := range m.Nodes {
		nic, err := ni.New(id, reply)
		if err != nil {
			return nil, err
		}
		n.ReplyNI = nic
	}
	return m, nil
}

// Node returns node id, panicking on out-of-range ids (a harness bug).
func (m *Machine) Node(id int) *Node {
	if id < 0 || id >= len(m.Nodes) {
		panic(fmt.Sprintf("machine: no node %d", id))
	}
	return m.Nodes[id]
}

// TotalGauge returns a fresh gauge holding the sum over all nodes.
func (m *Machine) TotalGauge() *cost.Gauge {
	total := cost.NewGauge()
	for _, n := range m.Nodes {
		total.Add(n.Gauge)
	}
	return total
}

// ResetGauges zeroes every node's gauge.
func (m *Machine) ResetGauges() {
	for _, n := range m.Nodes {
		n.Gauge.Reset()
	}
}

// AttachObserver wires an observability hub into the machine: every node
// gets a recording scope, and the network substrate gets one if it
// implements obs.NetInstrumentable. Passing nil detaches. Attach before
// running; the observed Run method ticks the hub's simulated clock and
// samples per-node receive-queue depths once per round.
func (m *Machine) AttachObserver(h *obs.Hub) {
	m.hub = h
	if h == nil {
		for _, n := range m.Nodes {
			n.Obs = nil
		}
		if ni, ok := m.Net.(obs.NetInstrumentable); ok {
			ni.SetObserver(nil)
		}
		return
	}
	for _, n := range m.Nodes {
		n.Obs = h.NodeScope(n.ID)
	}
	if ni, ok := m.Net.(obs.NetInstrumentable); ok {
		ni.SetObserver(h.NetScope(m.Net.Name()))
	}
}

// Observer returns the attached hub, nil if none.
func (m *Machine) Observer() *obs.Hub { return m.hub }

// Stepper is one unit of protocol work bound to the machine: each call
// performs a bounded amount of progress and reports whether the protocol
// has completed.
type Stepper interface {
	// Step performs one scheduling quantum and reports completion.
	Step() (done bool, err error)
}

// ErrStalled reports that Run exhausted its round budget with steppers
// still incomplete — a livelock or a budget set too low.
var ErrStalled = errors.New("machine: protocol stalled before completion")

// Run drives the steppers round-robin until all report done, making one
// Step call per incomplete stepper per round. It is the deterministic
// "machine cycle" of every experiment: the interleaving depends only on
// stepper order.
func Run(maxRounds int, steppers ...Stepper) error {
	done := doneFlags(len(steppers))
	for round := 0; round < maxRounds; round++ {
		allDone := true
		for i, s := range steppers {
			if done[i] {
				continue
			}
			d, err := s.Step()
			if err != nil {
				return err
			}
			done[i] = d
			if !d {
				allDone = false
			}
		}
		if allDone {
			return nil
		}
	}
	return ErrStalled
}

// doneFlags returns n cleared completion flags. Up to four fit in a
// fixed array, which the inliner keeps on the caller's stack.
func doneFlags(n int) []bool {
	if n <= 4 {
		return make([]bool, n, 4)
	}
	return make([]bool, n)
}

// StepFunc adapts a function to the Stepper interface.
type StepFunc func() (bool, error)

// Step implements Stepper.
func (f StepFunc) Step() (bool, error) { return f() }

// Run drives the steppers like the package-level Run but, when an
// observer hub is attached, also advances the hub's simulated clock once
// per round, samples per-node receive-queue depths (if the substrate
// implements obs.DepthProber), and counts rounds, steps, and stalls.
// Without a hub it defers to the package-level Run unchanged.
func (m *Machine) Run(maxRounds int, steppers ...Stepper) error {
	h := m.hub
	if h == nil || !h.Enabled() {
		return Run(maxRounds, steppers...)
	}
	rounds := h.Metrics.Counter(obs.Key{Name: "run_rounds_total", Node: -1})
	steps := h.Metrics.Counter(obs.Key{Name: "run_steps_total", Node: -1})
	stalls := h.Metrics.Counter(obs.Key{Name: "run_stalls_total", Node: -1})
	prober, _ := m.Net.(obs.DepthProber)

	done := doneFlags(len(steppers))
	for round := 0; round < maxRounds; round++ {
		allDone := true
		for i, s := range steppers {
			if done[i] {
				continue
			}
			d, err := s.Step()
			steps.Inc()
			if err != nil {
				return err
			}
			done[i] = d
			if !d {
				allDone = false
			}
		}
		rounds.Inc()
		if prober != nil {
			for _, n := range m.Nodes {
				n.Obs.RecvQueueDepth(prober.QueueDepth(n.ID))
			}
		}
		h.Tick()
		if allDone {
			return nil
		}
	}
	stalls.Inc()
	return ErrStalled
}
