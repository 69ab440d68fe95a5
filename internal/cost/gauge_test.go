package cost

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestGaugeChargeAndCells(t *testing.T) {
	g := NewGauge()
	g.Charge(Source, Base, Items{
		{Reg, SubCallRet, 3},
		{Dev, SubNIWrite, 2},
	})
	g.Charge(Destination, FaultTol, Items{{Mem, SubBookkeeping, 7}})

	if got := g.Cell(Source, Base); got != V(3, 0, 2) {
		t.Errorf("Cell(Source, Base) = %v", got)
	}
	if got := g.Cell(Destination, FaultTol); got != V(0, 7, 0) {
		t.Errorf("Cell(Destination, FaultTol) = %v", got)
	}
	if got := g.Cell(Source, FaultTol); !got.IsZero() {
		t.Errorf("unexpected counts in empty cell: %v", got)
	}
	if got := g.RoleTotal(Source); got != V(3, 0, 2) {
		t.Errorf("RoleTotal(Source) = %v", got)
	}
	if got := g.FeatureTotal(FaultTol); got != V(0, 7, 0) {
		t.Errorf("FeatureTotal(FaultTol) = %v", got)
	}
	if got := g.Total(); got != V(3, 7, 2) {
		t.Errorf("Total = %v", got)
	}
	if got := g.SubCell(Source, SubCallRet); got != V(3, 0, 0) {
		t.Errorf("SubCell = %v", got)
	}
}

func TestGaugeChargeVecGoesToBookkeeping(t *testing.T) {
	g := NewGauge()
	g.ChargeVec(Source, InOrder, V(2, 3, 4))
	if got := g.Cell(Source, InOrder); got != V(2, 3, 4) {
		t.Errorf("Cell = %v", got)
	}
	if got := g.SubCell(Source, SubBookkeeping); got != V(2, 3, 4) {
		t.Errorf("SubCell = %v", got)
	}
}

func TestGaugeEvents(t *testing.T) {
	g := NewGauge()
	g.CountEvent("packet.sent")
	g.CountEvent("packet.sent")
	g.CountEvent("ack.recv")
	if g.Events("packet.sent") != 2 || g.Events("ack.recv") != 1 {
		t.Errorf("event counts wrong: %d %d", g.Events("packet.sent"), g.Events("ack.recv"))
	}
	if g.Events("never") != 0 {
		t.Errorf("absent event should be zero")
	}
	names := g.EventNames()
	if len(names) != 2 || names[0] != "ack.recv" || names[1] != "packet.sent" {
		t.Errorf("EventNames = %v", names)
	}
}

func TestGaugeAddAndSnapshot(t *testing.T) {
	g := NewGauge()
	g.Charge(Source, Base, Items{{Reg, SubCallRet, 5}})
	g.CountEvent("e")

	snap := g.Snapshot()
	g.Charge(Source, Base, Items{{Reg, SubCallRet, 2}})
	g.CountEvent("e")

	if got := snap.Cell(Source, Base); got != V(5, 0, 0) {
		t.Errorf("snapshot mutated: %v", got)
	}
	if got := g.Cell(Source, Base); got != V(7, 0, 0) {
		t.Errorf("gauge = %v", got)
	}

	sum := NewGauge()
	sum.Add(g)
	sum.Add(snap)
	if got := sum.Cell(Source, Base); got != V(12, 0, 0) {
		t.Errorf("Add = %v", got)
	}
	if sum.Events("e") != 3 {
		t.Errorf("Add events = %d", sum.Events("e"))
	}
}

func TestGaugeDiff(t *testing.T) {
	g := NewGauge()
	g.Charge(Source, Base, Items{{Reg, SubCallRet, 5}})
	snap := g.Snapshot()
	g.Charge(Source, Base, Items{{Reg, SubCallRet, 3}})
	g.Charge(Destination, InOrder, Items{{Mem, SubBookkeeping, 4}})
	g.CountEvent("x")

	d := g.Diff(snap)
	if got := d.Cell(Source, Base); got != V(3, 0, 0) {
		t.Errorf("Diff cell = %v", got)
	}
	if got := d.Cell(Destination, InOrder); got != V(0, 4, 0) {
		t.Errorf("Diff cell = %v", got)
	}
	if d.Events("x") != 1 {
		t.Errorf("Diff events = %d", d.Events("x"))
	}
}

func TestGaugeDiffUnderflowPanics(t *testing.T) {
	g := NewGauge()
	big := NewGauge()
	big.Charge(Source, Base, Items{{Reg, SubCallRet, 5}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Diff(big)
}

func TestGaugeReset(t *testing.T) {
	g := NewGauge()
	g.Charge(Source, Base, Items{{Reg, SubCallRet, 5}})
	g.CountEvent("e")
	g.Reset()
	if !g.Total().IsZero() {
		t.Errorf("Total after reset = %v", g.Total())
	}
	if g.Events("e") != 0 {
		t.Errorf("events survived reset")
	}
	// The gauge must be usable after Reset.
	g.CountEvent("e2")
	if g.Events("e2") != 1 {
		t.Errorf("gauge unusable after reset")
	}
}

func TestGaugeWeighted(t *testing.T) {
	g := NewGauge()
	g.Charge(Source, Base, Items{
		{Reg, SubCallRet, 1},
		{Mem, SubDataMove, 1},
		{Dev, SubNIWrite, 1},
	})
	if got := g.Weighted(Unit); got != 3 {
		t.Errorf("unit weighted = %d", got)
	}
	if got := g.Weighted(CM5); got != 7 {
		t.Errorf("cm5 weighted = %d", got)
	}
}

func TestGaugeString(t *testing.T) {
	g := NewGauge()
	g.Charge(Source, Base, Items{{Reg, SubCallRet, 20}})
	g.Charge(Destination, Base, Items{{Reg, SubCallRet, 27}})
	s := g.String()
	for _, want := range []string{"Base Cost", "20", "27", "47", "Total"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

// Gauge accumulation is additive: charging a+b equals charging a then b,
// and totals equal the sum of role totals — invariants every table render
// depends on.
func TestGaugeAdditivityProperty(t *testing.T) {
	type chg struct {
		RoleN uint8
		FeatN uint8
		CatN  uint8
		SubN  uint8
		N     uint16
	}
	apply := func(g *Gauge, cs []chg) {
		for _, c := range cs {
			r := Role(c.RoleN % NumRoles)
			f := Feature(c.FeatN % NumFeatures)
			cat := Category(c.CatN % NumCategories)
			sub := Sub(c.SubN % NumSubs)
			g.Charge(r, f, Items{{cat, sub, uint64(c.N)}})
		}
	}
	prop := func(a, b []chg) bool {
		both := NewGauge()
		apply(both, a)
		apply(both, b)

		ga, gb := NewGauge(), NewGauge()
		apply(ga, a)
		apply(gb, b)
		sum := NewGauge()
		sum.Add(ga)
		sum.Add(gb)

		if both.Total() != sum.Total() {
			return false
		}
		for _, r := range Roles() {
			for _, f := range Features() {
				if both.Cell(r, f) != sum.Cell(r, f) {
					return false
				}
			}
			for _, s := range Subs() {
				if both.SubCell(r, s) != sum.SubCell(r, s) {
					return false
				}
			}
		}
		// Cross-axis consistency: feature totals and role totals both sum
		// to the grand total.
		var byRole, byFeat Vec
		for _, r := range Roles() {
			byRole = byRole.Add(both.RoleTotal(r))
		}
		for _, f := range Features() {
			byFeat = byFeat.Add(both.FeatureTotal(f))
		}
		return byRole == both.Total() && byFeat == both.Total()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Diff lists only the events that grew since the snapshot, and a snapshot's
// event counts do not move with the gauge it was taken from.
func TestGaugeEventDiffAndSnapshotIsolation(t *testing.T) {
	g := NewGauge()
	g.CountEvent("b")
	g.CountEvent("a")
	snap := g.Snapshot()
	g.CountEvent("b")
	g.CountEvent("c")
	if snap.Events("b") != 1 || snap.Events("c") != 0 {
		t.Errorf("snapshot events moved: b=%d c=%d", snap.Events("b"), snap.Events("c"))
	}
	d := g.Diff(snap)
	if names := d.EventNames(); !reflect.DeepEqual(names, []string{"b", "c"}) {
		t.Errorf("Diff EventNames = %v, want [b c]", names)
	}
	if d.Events("a") != 0 || d.Events("b") != 1 || d.Events("c") != 1 {
		t.Errorf("Diff events a=%d b=%d c=%d", d.Events("a"), d.Events("b"), d.Events("c"))
	}
}

// Counting an already-seen event allocates nothing.
func TestCountEventAllocatesNothing(t *testing.T) {
	g := NewGauge()
	names := []string{"finite.packet.sent", "finite.packet.recv", "stream.ack.sent"}
	for _, n := range names {
		g.CountEvent(n)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, n := range names {
			g.CountEvent(n)
		}
	}); allocs != 0 {
		t.Errorf("CountEvent made %v allocations, want 0", allocs)
	}
}
