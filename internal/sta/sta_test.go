package sta

import (
	"math"
	"testing"

	"wcm3d/internal/cells"
	"wcm3d/internal/netlist"
	"wcm3d/internal/place"
)

func chain(t *testing.T) *netlist.Netlist {
	t.Helper()
	n, err := netlist.ParseString("chain", `
INPUT(a)
n1 = NOT(a)
n2 = NOT(n1)
n3 = NOT(n2)
OUTPUT(z) = n3
`)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestAnalyzeChainArrivals(t *testing.T) {
	n := chain(t)
	lib := cells.Default45nm()
	r, err := Analyze(n, lib, Config{ClockPS: 10000})
	if err != nil {
		t.Fatal(err)
	}
	id := func(s string) netlist.SignalID { i, _ := n.SignalByName(s); return i }
	// Without placement there is no wire delay: arrival(n_k) is the sum
	// of gate delays along the chain; each NOT drives one NOT pin except
	// the last, which drives the PO (no pin cap).
	notP := lib.Of(netlist.GateNot)
	d12 := notP.IntrinsicPS + notP.DriveResKOhm*notP.InputCapFF // n1, n2 each drive one NOT pin
	d3 := notP.IntrinsicPS                                      // n3 drives only the PO (zero cap)
	if got := r.ArrivalPS[id("n1")]; math.Abs(got-d12) > 1e-9 {
		t.Errorf("arrival(n1) = %v, want %v", got, d12)
	}
	if got := r.ArrivalPS[id("n3")]; math.Abs(got-(2*d12+d3)) > 1e-9 {
		t.Errorf("arrival(n3) = %v, want %v", got, 2*d12+d3)
	}
}

func TestAnalyzeMonotoneArrivals(t *testing.T) {
	n := chain(t)
	lib := cells.Default45nm()
	r, err := Analyze(n, lib, Config{ClockPS: 10000})
	if err != nil {
		t.Fatal(err)
	}
	id := func(s string) netlist.SignalID { i, _ := n.SignalByName(s); return i }
	if !(r.ArrivalPS[id("a")] < r.ArrivalPS[id("n1")] &&
		r.ArrivalPS[id("n1")] < r.ArrivalPS[id("n2")] &&
		r.ArrivalPS[id("n2")] < r.ArrivalPS[id("n3")]) {
		t.Error("arrival times must increase along a chain")
	}
}

func TestSlackAndViolation(t *testing.T) {
	n := chain(t)
	lib := cells.Default45nm()
	loose, err := Analyze(n, lib, Config{ClockPS: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if loose.WNS() < 0 {
		t.Errorf("10 ns clock must meet timing on a 3-inverter chain (WNS %v)", loose.WNS())
	}
	tight, err := Analyze(n, lib, Config{ClockPS: 40})
	if err != nil {
		t.Fatal(err)
	}
	if tight.WNS() >= 0 {
		t.Errorf("40 ps clock must violate (critical path %v)", tight.CriticalPathPS())
	}
	if len(tight.Violations(0)) == 0 {
		t.Error("violation list empty despite negative WNS")
	}
	// Violations must be sorted worst-first.
	v := tight.Violations(0)
	for i := 1; i < len(v); i++ {
		if tight.SlackPS(v[i]) < tight.SlackPS(v[i-1]) {
			t.Error("violations not sorted worst-first")
		}
	}
}

func TestCriticalPathMatchesSlackBoundary(t *testing.T) {
	n := chain(t)
	lib := cells.Default45nm()
	r, err := Analyze(n, lib, Config{ClockPS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	cp := r.CriticalPathPS()
	// Clock exactly at critical path + setup: slack must be ~0.
	r2, err := Analyze(n, lib, Config{ClockPS: cp + 30})
	if err != nil {
		t.Fatal(err)
	}
	if wns := r2.WNS(); math.Abs(wns) > 1e-6 {
		t.Errorf("WNS at exact critical clock = %v, want 0", wns)
	}
	// One ps tighter must violate.
	r3, err := Analyze(n, lib, Config{ClockPS: cp + 29})
	if err != nil {
		t.Fatal(err)
	}
	if r3.WNS() >= 0 {
		t.Error("clock below critical path must violate")
	}
}

func TestDFFEndpointAndLaunch(t *testing.T) {
	n, err := netlist.ParseString("ff", `
INPUT(a)
q = DFF(n1)
n1 = XOR(a, q)
OUTPUT(z) = q
`)
	if err != nil {
		t.Fatal(err)
	}
	lib := cells.Default45nm()
	r, err := Analyze(n, lib, Config{ClockPS: 10000})
	if err != nil {
		t.Fatal(err)
	}
	id := func(s string) netlist.SignalID { i, _ := n.SignalByName(s); return i }
	// FF launches at its clk-to-Q delay, not zero.
	if r.ArrivalPS[id("q")] <= 0 {
		t.Error("flip-flop Q must launch at clk-to-Q > 0")
	}
	// n1 is a capture endpoint (feeds the D pin): finite required time.
	if math.IsInf(r.RequiredPS[id("n1")], 1) {
		t.Error("D-pin driver must have a finite required time")
	}
}

func TestTSVOutHeavierLoad(t *testing.T) {
	// The same driver loaded by a TSV pad must see more capacitance than
	// one loaded by a plain PO.
	mk := func(class netlist.PortClass) *Result {
		n := netlist.New("tsv")
		a := n.MustAddGate(netlist.GateInput, "a")
		b := n.MustAddGate(netlist.GateBuf, "b", a)
		cls := "OUTPUT"
		_ = cls
		if err := n.AddOutput("z", b, class); err != nil {
			t.Fatal(err)
		}
		r, err := Analyze(n, cells.Default45nm(), Config{ClockPS: 10000})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	po := mk(netlist.PortPO)
	tsv := mk(netlist.PortTSVOut)
	bPO, _ := po.Netlist.SignalByName("b")
	bTSV, _ := tsv.Netlist.SignalByName("b")
	if tsv.LoadFF[bTSV] <= po.LoadFF[bPO] {
		t.Errorf("TSV load %v must exceed PO load %v", tsv.LoadFF[bTSV], po.LoadFF[bPO])
	}
	if tsv.ArrivalPS[bTSV] <= po.ArrivalPS[bPO] {
		t.Error("heavier load must slow the driver")
	}
}

func TestWireDelayIncreasesArrival(t *testing.T) {
	n := chain(t)
	lib := cells.Default45nm()
	pl, err := place.Place(n, place.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	noWire, err := Analyze(n, lib, Config{ClockPS: 10000})
	if err != nil {
		t.Fatal(err)
	}
	withWire, err := Analyze(n, lib, Config{ClockPS: 10000, Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	if withWire.CriticalPathPS() <= noWire.CriticalPathPS() {
		t.Errorf("wire model must lengthen the critical path: %v <= %v",
			withWire.CriticalPathPS(), noWire.CriticalPathPS())
	}
}

func TestAnalyzeRejectsBadConfig(t *testing.T) {
	n := chain(t)
	lib := cells.Default45nm()
	if _, err := Analyze(n, lib, Config{ClockPS: 0}); err == nil {
		t.Error("zero clock must be rejected")
	}
	other := chain(t)
	pl, err := place.Place(other, place.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(n, lib, Config{ClockPS: 100, Placement: pl}); err == nil {
		t.Error("placement for a different netlist must be rejected")
	}
}

func TestSlackConsistency(t *testing.T) {
	// Property: on any path driver→sink, slack(driver) <= slack(sink)+eps
	// is NOT generally true, but required(f) <= required(g) - delay(g)
	// must hold for every edge by construction. Verify on a small mixed
	// circuit.
	n, err := netlist.ParseString("mix", `
INPUT(a)
INPUT(b)
TSV_IN(t)
n1 = AND(a, b)
n2 = OR(n1, t)
n3 = XOR(n2, n1)
q = DFF(n3)
OUTPUT(z) = n3
TSV_OUT(u) = n2
`)
	if err != nil {
		t.Fatal(err)
	}
	lib := cells.Default45nm()
	r, err := Analyze(n, lib, Config{ClockPS: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range n.Gates {
		g := n.Gate(netlist.SignalID(i))
		if !g.Type.IsCombinational() {
			continue
		}
		for _, f := range g.Fanin {
			bound := r.RequiredPS[i] - r.DelayPS[i]
			if r.RequiredPS[f] > bound+1e-9 {
				t.Errorf("required(%s)=%v exceeds required(%s)-delay=%v",
					n.NameOf(f), r.RequiredPS[f], n.NameOf(netlist.SignalID(i)), bound)
			}
		}
	}
}
