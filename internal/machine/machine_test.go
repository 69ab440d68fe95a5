package machine

import (
	"errors"
	"testing"

	"msglayer/internal/cost"
	"msglayer/internal/network"
)

func newMachine(t *testing.T, nodes int) *Machine {
	t.Helper()
	net := network.MustCM5Net(network.CM5Config{Nodes: nodes})
	return MustNew(net, cost.MustPaperSchedule(4))
}

func TestNewValidates(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("accepted nil arguments")
	}
	net := network.MustCM5Net(network.CM5Config{Nodes: 2})
	if _, err := New(net, nil); err == nil {
		t.Error("accepted nil schedule")
	}
	// Mismatched packet sizes between schedule and network.
	if _, err := New(net, cost.MustPaperSchedule(8)); err == nil {
		t.Error("accepted schedule/network packet size mismatch")
	}
	// Corrupted schedule.
	bad := cost.MustPaperSchedule(4).Clone()
	bad.SendSingle = nil
	if _, err := New(net, bad); err == nil {
		t.Error("accepted invalid schedule")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(nil, nil)
}

func TestMachineShape(t *testing.T) {
	m := newMachine(t, 4)
	if len(m.Nodes) != 4 {
		t.Fatalf("nodes = %d", len(m.Nodes))
	}
	for i, n := range m.Nodes {
		if n.ID != i {
			t.Errorf("node %d has ID %d", i, n.ID)
		}
		if n.Gauge == nil || n.NI == nil || n.Sched == nil {
			t.Errorf("node %d missing parts", i)
		}
		if n.NI.Node() != i {
			t.Errorf("node %d NI attached to %d", i, n.NI.Node())
		}
	}
	if m.Node(2).ID != 2 {
		t.Error("Node accessor wrong")
	}
}

func TestNodeAccessorPanics(t *testing.T) {
	m := newMachine(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Node(5)
}

func TestRolesAndCharging(t *testing.T) {
	m := newMachine(t, 2)
	src, dst := m.Node(0), m.Node(1)
	src.SetRole(cost.Source)
	dst.SetRole(cost.Destination)

	src.Charge(cost.Base, src.Sched.SendSingle)
	dst.Charge(cost.Base, dst.Sched.RecvSingle)
	src.Event("sent")

	if got := src.Gauge.Cell(cost.Source, cost.Base).Total(); got != 20 {
		t.Errorf("source base = %d, want 20", got)
	}
	if got := dst.Gauge.Cell(cost.Destination, cost.Base).Total(); got != 27 {
		t.Errorf("destination base = %d, want 27", got)
	}
	if src.Gauge.Events("sent") != 1 {
		t.Error("event not recorded")
	}
	if src.Role() != cost.Source || dst.Role() != cost.Destination {
		t.Error("roles wrong")
	}

	total := m.TotalGauge()
	if got := total.Total().Total(); got != 47 {
		t.Errorf("machine total = %d, want 47", got)
	}

	m.ResetGauges()
	if got := m.TotalGauge().Total(); !got.IsZero() {
		t.Errorf("total after reset = %v", got)
	}
}

func TestRunRoundRobinUntilDone(t *testing.T) {
	var order []int
	mk := func(id, steps int) Stepper {
		remaining := steps
		return StepFunc(func() (bool, error) {
			order = append(order, id)
			remaining--
			return remaining <= 0, nil
		})
	}
	if err := Run(10, mk(1, 2), mk(2, 3), mk(3, 1)); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 1, 2, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunStalls(t *testing.T) {
	never := StepFunc(func() (bool, error) { return false, nil })
	if err := Run(5, never); !errors.Is(err, ErrStalled) {
		t.Errorf("Run = %v, want ErrStalled", err)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	bad := StepFunc(func() (bool, error) { return false, boom })
	if err := Run(5, bad); !errors.Is(err, boom) {
		t.Errorf("Run = %v, want boom", err)
	}
}

func TestRunNoSteppers(t *testing.T) {
	if err := Run(1); err != nil {
		t.Errorf("Run with no steppers = %v", err)
	}
}

func TestNewDual(t *testing.T) {
	req := network.MustCM5Net(network.CM5Config{Nodes: 3})
	rep := network.MustCM5Net(network.CM5Config{Nodes: 3})
	m, err := NewDual(req, rep, cost.MustPaperSchedule(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range m.Nodes {
		if n.ReplyNI == nil {
			t.Fatalf("node %d missing reply NI", i)
		}
		if n.ReplyNI.Node() != i {
			t.Errorf("node %d reply NI attached to %d", i, n.ReplyNI.Node())
		}
	}
	// Validation failures.
	if _, err := NewDual(req, nil, cost.MustPaperSchedule(4)); err == nil {
		t.Error("nil reply network accepted")
	}
	if _, err := NewDual(req, network.MustCM5Net(network.CM5Config{Nodes: 2}),
		cost.MustPaperSchedule(4)); err == nil {
		t.Error("node-count mismatch accepted")
	}
	if _, err := NewDual(req, network.MustCM5Net(network.CM5Config{Nodes: 3, PacketWords: 8}),
		cost.MustPaperSchedule(4)); err == nil {
		t.Error("packet-size mismatch accepted")
	}
	// The request-network validation still applies first.
	if _, err := NewDual(nil, rep, cost.MustPaperSchedule(4)); err == nil {
		t.Error("nil request network accepted")
	}
}

func TestEventListener(t *testing.T) {
	m := newMachine(t, 1)
	var seen []string
	m.Node(0).EventListener = func(name string) { seen = append(seen, name) }
	m.Node(0).Event("a")
	m.Node(0).Event("b")
	if len(seen) != 2 || seen[0] != "a" || seen[1] != "b" {
		t.Errorf("listener saw %v", seen)
	}
	if m.Node(0).Gauge.Events("a") != 1 {
		t.Error("gauge missed the event")
	}
}
