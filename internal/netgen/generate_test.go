package netgen

import (
	"strings"
	"testing"

	"wcm3d/internal/netlist"
)

func TestITC99ProfileCount(t *testing.T) {
	ps := ITC99Profiles()
	if len(ps) != 24 {
		t.Fatalf("profiles = %d, want 24 (6 circuits x 4 dies)", len(ps))
	}
	// Spot-check values against Table II of the paper.
	check := func(circuit string, die, ffs, gates, in, out int) {
		t.Helper()
		for _, p := range ps {
			if p.Circuit == circuit && p.Die == die {
				if p.ScanFFs != ffs || p.Gates != gates || p.InboundTSVs != in || p.OutboundTSVs != out {
					t.Errorf("%s/Die%d = %+v, want FF=%d G=%d in=%d out=%d",
						circuit, die, p, ffs, gates, in, out)
				}
				return
			}
		}
		t.Errorf("profile %s/Die%d missing", circuit, die)
	}
	check("b11", 0, 14, 120, 14, 16)
	check("b12", 2, 45, 344, 23, 42)
	check("b18", 1, 1033, 26698, 1561, 1875)
	check("b20", 3, 83, 7325, 408, 235)
	check("b22", 3, 6, 11358, 511, 481)
}

func TestITC99Circuit(t *testing.T) {
	dies := ITC99Circuit("b12")
	if len(dies) != 4 {
		t.Fatalf("b12 dies = %d, want 4", len(dies))
	}
	if ITC99Circuit("b99") != nil {
		t.Error("unknown circuit should return nil")
	}
	if len(ITC99CircuitNames()) != 6 {
		t.Error("want 6 circuit families")
	}
}

func TestGenerateMatchesProfileExactly(t *testing.T) {
	for _, p := range ITC99Profiles() {
		if p.Gates > 1000 {
			continue // large dies covered by TestGenerateLargeDie
		}
		n, err := Generate(p, 7)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		st := netlist.CollectStats(n)
		if st.ScanFFs != p.ScanFFs {
			t.Errorf("%s: FFs = %d, want %d", p.Name(), st.ScanFFs, p.ScanFFs)
		}
		if st.LogicGates != p.Gates {
			t.Errorf("%s: gates = %d, want %d", p.Name(), st.LogicGates, p.Gates)
		}
		if st.InboundTSVs != p.InboundTSVs {
			t.Errorf("%s: inbound = %d, want %d", p.Name(), st.InboundTSVs, p.InboundTSVs)
		}
		if st.OutboundTSVs != p.OutboundTSVs {
			t.Errorf("%s: outbound = %d, want %d", p.Name(), st.OutboundTSVs, p.OutboundTSVs)
		}
	}
}

func TestGenerateLargeDie(t *testing.T) {
	if testing.Short() {
		t.Skip("large die generation in -short mode")
	}
	p := Profile{Circuit: "b18", Die: 1, ScanFFs: 1033, Gates: 26698,
		InboundTSVs: 1561, OutboundTSVs: 1875, PIs: 9, POs: 8}
	n, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := netlist.CollectStats(n)
	if st.LogicGates != p.Gates || st.ScanFFs != p.ScanFFs ||
		st.InboundTSVs != p.InboundTSVs || st.OutboundTSVs != p.OutboundTSVs {
		t.Errorf("large die stats %+v do not match profile %+v", st, p)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := ITC99Circuit("b12")[1]
	n1, err := Generate(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Generate(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	if n1.String() != n2.String() {
		t.Error("same seed must generate identical dies")
	}
	n3, err := Generate(p, 43)
	if err != nil {
		t.Fatal(err)
	}
	if n1.String() == n3.String() {
		t.Error("different seeds should generate different dies")
	}
}

func TestGenerateAllSourcesUsed(t *testing.T) {
	// Every PI, TSV pad and flip-flop must have at least one fanout —
	// otherwise cones degenerate and the WCM graph loses nodes.
	cases := []struct {
		p    Profile
		seed int64
	}{
		{ITC99Circuit("b11")[2], 3}, // only 3 FFs, 38+38 TSVs, 229 gates
		// The deconstant pass once rewired away the only fan-out of a
		// TSV pad on these two (tin4 and tin801).
		{Profile{Circuit: "q", Gates: 276, ScanFFs: 15, InboundTSVs: 28, PIs: 4, POs: 3}, 5248694409189590524},
		{ITC99Circuit("b22")[1], 2},
	}
	for _, c := range cases {
		n, err := Generate(c.p, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		g := n.Graph()
		for _, id := range n.InboundTSVs() {
			if len(g.FanoutOf(id)) == 0 {
				t.Errorf("%s@%d: inbound TSV %s has no fanout", c.p.Name(), c.seed, n.NameOf(id))
			}
		}
		for _, id := range n.FlipFlops() {
			if len(g.FanoutOf(id)) == 0 {
				t.Errorf("%s@%d: flip-flop %s has no fanout", c.p.Name(), c.seed, n.NameOf(id))
			}
		}
		for _, id := range n.Inputs() {
			if len(g.FanoutOf(id)) == 0 {
				t.Errorf("%s@%d: input %s has no fanout", c.p.Name(), c.seed, n.NameOf(id))
			}
		}
	}
}

func TestGenerateFFsCaptureLogic(t *testing.T) {
	p := ITC99Circuit("b12")[3]
	n, err := Generate(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, ff := range n.FlipFlops() {
		d := n.Gate(ff).Fanin[0]
		if !n.TypeOf(d).IsCombinational() {
			t.Errorf("FF %s captures %s (%s), want combinational logic",
				n.NameOf(ff), n.NameOf(d), n.TypeOf(d))
		}
	}
}

func TestGenerateOutboundTSVsDriven(t *testing.T) {
	p := ITC99Circuit("b12")[2]
	n, err := Generate(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[netlist.SignalID]int{}
	for _, oi := range n.OutboundTSVs() {
		o := n.Outputs[oi]
		if !n.TypeOf(o.Signal).IsCombinational() {
			t.Errorf("outbound TSV %s driven by %s, want logic", o.Name, n.TypeOf(o.Signal))
		}
		seen[o.Signal]++
	}
	// Ports should be mostly distinct signals.
	if len(seen) < len(n.OutboundTSVs())*9/10 {
		t.Errorf("only %d distinct signals for %d outbound TSVs", len(seen), len(n.OutboundTSVs()))
	}
}

func TestGenerateRejectsDegenerate(t *testing.T) {
	if _, err := Generate(Profile{Circuit: "x", Gates: 2}, 1); err == nil {
		t.Error("degenerate profile should fail")
	}
}

func TestRandomDefaults(t *testing.T) {
	n, err := Random(RandomOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumLogicGates() != 100 {
		t.Errorf("default gates = %d, want 100", n.NumLogicGates())
	}
	if err := n.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGeneratedDieRoundTrips(t *testing.T) {
	p := ITC99Circuit("b11")[0]
	n, err := Generate(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := n.Write(&sb); err != nil {
		t.Fatal(err)
	}
	n2, err := netlist.ParseString(n.Name, sb.String())
	if err != nil {
		t.Fatalf("generated die does not reparse: %v", err)
	}
	if n2.NumGates() != n.NumGates() {
		t.Error("round trip changed gate count")
	}
}

func TestProfileName(t *testing.T) {
	p := Profile{Circuit: "b20", Die: 3}
	if p.Name() != "b20/Die3" {
		t.Errorf("Name = %q", p.Name())
	}
}
